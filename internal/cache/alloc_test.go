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
			res, pred := sim.replayWindow(c, -2) // warm every stage
			if res.CacheLookups == 0 || res.BusBeats == 0 {
				t.Fatalf("%s/%v: warm-up window did no work: %+v", bench, org, res)
			}
			allocs := testing.AllocsPerRun(2, func() {
				_, pred = sim.replayWindow(c, pred)
			})
			if allocs != 0 {
				t.Errorf("%s/%v: %v allocations per %d-event window, want 0",
					bench, org, allocs, len(c.Events))
			}
		}
	}
}

// TestRunStreamFanOutZeroAlloc pins the fan-out's per-chunk cost at
// zero allocations: three warm Sims replaying one recycling PullStream
// allocate as much over 100 chunks as over 10 — the stream, its one
// chunk buffer and RunStream's result slices, none of them per chunk.
func TestRunStreamFanOutZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const chunkEvents = 1024
	sp, ims := pipeline(t, "compress")
	prof := workload.MustProfile("compress")
	tr, err := emu.StochasticTrace(sp, prof.Seed, 100*chunkEvents, prof.Phases)
	if err != nil {
		t.Fatal(err)
	}
	var sims []*Sim
	for _, org := range []Org{OrgBase, OrgCompressed, OrgTailored} {
		sim, err := NewSim(org, DefaultConfig(org), ims[org], sp)
		if err != nil {
			t.Fatal(err)
		}
		sims = append(sims, sim)
	}
	run := func(chunks int) {
		pre := &trace.Trace{Name: tr.Name, Events: tr.Events[:chunks*chunkEvents]}
		if _, err := RunStream(attributedStream(sp, pre, chunkEvents), sims...); err != nil {
			t.Fatal(err)
		}
	}
	run(100) // warm every stage of every Sim
	short := testing.AllocsPerRun(5, func() { run(10) })
	long := testing.AllocsPerRun(5, func() { run(100) })
	if long != short {
		t.Errorf("3-Sim fan-out: %.1f allocations over 100 chunks, %.1f over 10; replay allocates per chunk",
			long, short)
	}
}
