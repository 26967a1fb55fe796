package cache

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/image"
	"repro/internal/trace"
)

// FuzzRunStreamValidated is the property that lets Sim.step have no
// error path: every trace whose events pass validation replays without
// error. It draws random events over the compress program (Block in
// range, Next in range or End, random Taken) and replays them at a
// random chunk size on every built-in organization; RunStream must
// return a nil error and equal Run on the same trace. Then one event's
// Block is moved out of range, and RunStream must reject the trace with
// ErrMalformedTrace naming that event's absolute offset, without
// panicking.
func FuzzRunStreamValidated(f *testing.F) {
	sp, ims := pipeline(f, "compress")
	byteEnc, err := compress.NewByteHuffman(sp)
	if err != nil {
		f.Fatal(err)
	}
	rom, err := image.Build(sp, byteEnc)
	if err != nil {
		f.Fatal(err)
	}
	orgs := []struct {
		org            Org
		cacheIm, romIm *image.Image
	}{
		{OrgBase, ims[OrgBase], nil},
		{OrgTailored, ims[OrgTailored], nil},
		{OrgCompressed, ims[OrgCompressed], nil},
		{OrgCodePack, ims[OrgBase], rom},
	}
	nb := len(sp.Blocks)

	f.Add(int64(1), uint16(1), uint16(1), uint16(0))
	f.Add(int64(2), uint16(500), uint16(7), uint16(499))
	f.Add(int64(3), uint16(2048), uint16(512), uint16(1023))
	f.Add(int64(4), uint16(3000), uint16(4097), uint16(7))
	f.Fuzz(func(t *testing.T, seed int64, n, chunk, corrupt uint16) {
		rng := rand.New(rand.NewSource(seed))
		tr := &trace.Trace{Name: "fuzz", Events: make([]trace.Event, int(n)%4000+1)}
		for i := range tr.Events {
			b := rng.Intn(nb)
			tr.Events[i] = trace.MakeEvent(b, rng.Intn(2) == 1, rng.Intn(nb+1)-1)
			tr.Ops += int64(sp.Blocks[b].NumOps())
			tr.MOPs += int64(sp.Blocks[b].NumMOPs())
		}
		cs := int(chunk)%(len(tr.Events)+1) + 1

		at := int(corrupt) % len(tr.Events)
		bad := *tr
		bad.Events = append([]trace.Event(nil), tr.Events...)
		badBlock := nb + int(corrupt)%5
		if corrupt&1 == 1 {
			badBlock = -1 - int(corrupt)%5
		}
		ev := bad.Events[at]
		bad.Events[at] = trace.MakeEvent(badBlock, ev.Taken(), ev.Next())

		for _, o := range orgs {
			newSim := func() *Sim {
				sim, err := NewOrgSim(o.org, DefaultConfig(o.org), o.cacheIm, o.romIm, sp)
				if err != nil {
					t.Fatal(err)
				}
				return sim
			}
			want, err := newSim().Run(tr)
			if err != nil {
				t.Fatalf("%v: Run on a validated trace: %v", o.org, err)
			}
			got, err := newSim().RunStream(trace.NewSliceStream(tr, cs))
			if err != nil {
				t.Fatalf("%v/chunk=%d: RunStream on a validated trace: %v", o.org, cs, err)
			}
			if got != want {
				t.Fatalf("%v/chunk=%d: RunStream %+v != Run %+v", o.org, cs, got, want)
			}

			_, err = newSim().RunStream(trace.NewSliceStream(&bad, cs))
			name := fmt.Sprintf("event %d ", at)
			if !errors.Is(err, ErrMalformedTrace) || !strings.Contains(err.Error(), name) {
				t.Fatalf("%v/chunk=%d: block %d at event %d: err = %v, want one wrapping %v and naming %q",
					o.org, cs, badBlock, at, err, ErrMalformedTrace, name)
			}
		}
	})
}
