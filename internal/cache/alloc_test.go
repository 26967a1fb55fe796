package cache

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/emu"
	"repro/internal/image"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestStepZeroAlloc pins the //tepic:hotpath contract of Sim.step: a
// warmed 100k-event window replays without a single allocation, for a
// benchmark that misses (gcc) and one that fits (compress), under every
// built-in pairing — including CodePack's line fetches from its byte
// ROM image.
func TestStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, bench := range []string{"gcc", "compress"} {
		sp, ims := pipeline(t, bench)
		byteEnc, err := compress.NewByteHuffman(sp)
		if err != nil {
			t.Fatal(err)
		}
		rom, err := image.Build(sp, byteEnc)
		if err != nil {
			t.Fatal(err)
		}
		prof := workload.MustProfile(bench)
		tr, err := emu.StochasticTrace(sp, prof.Seed, 100000, prof.Phases)
		if err != nil {
			t.Fatal(err)
		}
		c := &trace.Chunk{Events: tr.Events}
		for _, org := range []Org{OrgBase, OrgTailored, OrgCompressed, OrgCodePack} {
			cacheIm, romIm := ims[org], (*image.Image)(nil)
			if org == OrgCodePack {
				cacheIm, romIm = ims[OrgBase], rom
			}
			sim, err := NewOrgSim(org, DefaultConfig(org), cacheIm, romIm, sp)
			if err != nil {
				t.Fatal(err)
			}
			res, pred, err := sim.replayWindow(c, -2) // warm every stage
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheLookups == 0 || res.BusBeats == 0 {
				t.Fatalf("%s/%v: warm-up window did no work: %+v", bench, org, res)
			}
			allocs := testing.AllocsPerRun(2, func() {
				if _, pred, err = sim.replayWindow(c, pred); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s/%v: %v allocations per %d-event window, want 0",
					bench, org, allocs, len(c.Events))
			}
		}
	}
}
