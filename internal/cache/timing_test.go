package cache

import (
	"errors"
	"testing"

	"repro/internal/image"
	"repro/internal/trace"
)

// TestStartupTableCells drives StartupTable.Cycles cell by cell on a
// synthetic matrix whose entries are all distinct, pinning which cell
// each (predicted, hit, buffered) outcome reads, the n-scaling rules
// (miss cells always stream n lines; hit cells only under HitScalesN)
// and the precedence of the L0 cells over everything else.
func TestStartupTableCells(t *testing.T) {
	tab := StartupTable{
		PredHit: 10, PredMiss: 20, MispredHit: 30, MispredMiss: 40,
		BufPredHit: 50, BufMispred: 60,
	}
	for n := 1; n <= 3; n++ {
		extra := n - 1
		cases := []struct {
			pred, hit, buf bool
			want           int
		}{
			{true, true, false, 10},          // hit cells don't scale...
			{true, false, false, 20 + extra}, // ...miss cells always do
			{false, true, false, 30},
			{false, false, false, 40 + extra},
			{true, true, true, 50}, // buffer cells preempt the rest
			{true, false, true, 50},
			{false, true, true, 60},
			{false, false, true, 60},
		}
		for _, c := range cases {
			if got := tab.Cycles(c.pred, c.hit, c.buf, n); got != c.want {
				t.Errorf("n=%d pred=%v hit=%v buf=%v: %d cycles, want %d",
					n, c.pred, c.hit, c.buf, got, c.want)
			}
		}
	}
	// HitScalesN moves the hit cells onto the streaming rule too.
	tab.HitScalesN = true
	if got := tab.Cycles(true, true, false, 4); got != 13 {
		t.Errorf("scaled predicted hit = %d, want 10+3", got)
	}
	if got := tab.Cycles(false, true, false, 4); got != 33 {
		t.Errorf("scaled mispredicted hit = %d, want 30+3", got)
	}
	// n below 1 clamps: an empty block still costs the base cell.
	for _, n := range []int{0, -5} {
		if got := tab.Cycles(true, false, false, n); got != 20 {
			t.Errorf("n=%d predicted miss = %d, want clamp to 20", n, got)
		}
	}
}

// TestTable1Deviations pins the two cells where the built-in Compressed
// table deliberately departs from a literal reading of the published
// matrix (documented on StartupTable in timing.go):
//
//  1. A mispredicted L0-buffer hit costs 2 cycles, not the published 1 —
//     the buffer supplies ready MOPs but cannot undo the pipeline
//     restart, so it equals Base's mispredicted hit, never beats it.
//  2. A mispredicted compressed-cache hit costs 3+(n-1), one cycle more
//     than Base's 2 — the added Huffman decoder stage must show up in
//     the misprediction penalty even for single-line blocks, which is
//     the paper's stated reason the Tailored ISA wins.
func TestTable1Deviations(t *testing.T) {
	spec, ok := OrgCompressed.Spec()
	if !ok {
		t.Fatal("Compressed not registered")
	}
	// Deviation 1: BufMispred is 2 (published table reads 1).
	if spec.Timing.BufMispred != 2 {
		t.Errorf("Compressed BufMispred = %d, want the deliberate 2", spec.Timing.BufMispred)
	}
	if got, base := StartupCycles(OrgCompressed, false, true, true, 1),
		StartupCycles(OrgBase, false, true, false, 1); got != base {
		t.Errorf("mispredicted buffer hit = %d cycles, want %d (equivalent to Base, not faster)",
			got, base)
	}
	if bufHit, predHit := StartupCycles(OrgCompressed, false, false, true, 4),
		StartupCycles(OrgCompressed, true, true, true, 4); bufHit <= predHit {
		t.Errorf("mispredicted buffer hit (%d) must cost more than a predicted one (%d)",
			bufHit, predHit)
	}
	// Deviation 2: MispredHit is 3 (published table reads 2), one more
	// than Base — visible even at n=1.
	if spec.Timing.MispredHit != 3 {
		t.Errorf("Compressed MispredHit = %d, want the deliberate 3", spec.Timing.MispredHit)
	}
	for n := 1; n <= 4; n++ {
		comp := StartupCycles(OrgCompressed, false, true, false, n)
		base := StartupCycles(OrgBase, false, true, false, n)
		if comp != base+1+(n-1) {
			t.Errorf("n=%d: mispredicted compressed hit = %d, want Base's %d + decoder stage + %d streaming",
				n, comp, base, n-1)
		}
	}
}

// TestResultRatesBoundaries exercises the rate helpers at boundary
// counts: single events, all-hit and all-miss extremes, and the
// everything-mispredicted case must produce exact 0/1 endpoints.
func TestResultRatesBoundaries(t *testing.T) {
	r := Result{Cycles: 1, Ops: 1, BlockFetches: 1, CacheLookups: 1}
	if r.IPC() != 1 {
		t.Errorf("1 op / 1 cycle IPC = %v, want exactly 1", r.IPC())
	}
	if r.MissRate() != 0 {
		t.Errorf("no misses: MissRate = %v, want 0", r.MissRate())
	}
	if r.MispredictRate() != 0 {
		t.Errorf("no mispredicts: MispredictRate = %v, want 0", r.MispredictRate())
	}
	r.CacheMisses = 1
	if r.MissRate() != 1 {
		t.Errorf("all misses: MissRate = %v, want exactly 1", r.MissRate())
	}
	r.Mispredicts = 1
	if r.MispredictRate() != 1 {
		t.Errorf("all mispredicted: MispredictRate = %v, want exactly 1", r.MispredictRate())
	}
	big := Result{Cycles: 3, Ops: 12, CacheLookups: 4, CacheMisses: 1,
		BlockFetches: 8, Mispredicts: 2}
	if big.IPC() != 4 {
		t.Errorf("IPC = %v, want 4", big.IPC())
	}
	if big.MissRate() != 0.25 {
		t.Errorf("MissRate = %v, want 0.25", big.MissRate())
	}
	if big.MispredictRate() != 0.25 {
		t.Errorf("MispredictRate = %v, want 0.25", big.MispredictRate())
	}
}

// TestRunRejectsMalformedTrace is the regression for the satellite
// hardening fix: an event referencing a block outside the program used
// to index s.im.Blocks straight into a panic; Run must instead reject
// the trace with an error wrapping ErrMalformedTrace before replaying
// the chunk that holds it.
func TestRunRejectsMalformedTrace(t *testing.T) {
	sp, ims := pipeline(t, "compress")
	sim, err := NewSim(OrgBase, DefaultConfig(OrgBase), ims[OrgBase], sp)
	if err != nil {
		t.Fatal(err)
	}
	bad := []trace.Trace{
		{Name: "out-of-range", Events: []trace.Event{
			trace.MakeEvent(len(sp.Blocks), false, trace.End)}},
		{Name: "negative", Events: []trace.Event{
			trace.MakeEvent(-1, false, trace.End)}},
		{Name: "bad-successor", Events: []trace.Event{
			trace.MakeEvent(0, true, len(sp.Blocks)+3)}},
	}
	for i := range bad {
		_, err := sim.Run(&bad[i])
		if !errors.Is(err, ErrMalformedTrace) {
			t.Errorf("%s: Run returned %v, want an error wrapping ErrMalformedTrace", bad[i].Name, err)
		}
	}
	// Each bad event sits in its trace's first chunk, so the rejection
	// happens before any event replays: a good trace on the same
	// simulator still sees a cold cache.
	good := &trace.Trace{Events: []trace.Event{trace.MakeEvent(0, false, trace.End)}}
	res, err := sim.Run(good)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheMisses != 1 {
		t.Errorf("cache warmed by a rejected trace: %d misses, want 1", res.CacheMisses)
	}
}

// TestNewSimRejectsCorruptImage pins the typed construction-time
// validation: block tables disagreeing with the program or extending
// past the image data wrap ErrCorruptImage, degenerate geometries wrap
// ErrBadGeometry.
func TestNewSimRejectsCorruptImage(t *testing.T) {
	sp, ims := pipeline(t, "compress")
	im := ims[OrgBase]
	cfg := DefaultConfig(OrgBase)

	truncated := *im
	truncated.Data = truncated.Data[:len(truncated.Data)/2]
	if _, err := NewSim(OrgBase, cfg, &truncated, sp); !errors.Is(err, ErrCorruptImage) {
		t.Errorf("truncated data: %v, want ErrCorruptImage", err)
	}
	short := *im
	short.Blocks = short.Blocks[:len(short.Blocks)-1]
	if _, err := NewSim(OrgBase, cfg, &short, sp); !errors.Is(err, ErrCorruptImage) {
		t.Errorf("missing block: %v, want ErrCorruptImage", err)
	}
	negative := *im
	negative.Blocks = append([]image.Block(nil), im.Blocks...)
	negative.Blocks[0].Addr = -1
	if _, err := NewSim(OrgBase, cfg, &negative, sp); !errors.Is(err, ErrCorruptImage) {
		t.Errorf("negative address: %v, want ErrCorruptImage", err)
	}

	badGeom := cfg
	badGeom.Sets = 0
	if _, err := NewSim(OrgBase, badGeom, im, sp); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("zero sets: %v, want ErrBadGeometry", err)
	}
	badL0 := DefaultConfig(OrgCompressed)
	badL0.L0Ops = -1
	if _, err := NewSim(OrgCompressed, badL0, ims[OrgCompressed], sp); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("negative L0 capacity: %v, want ErrBadGeometry", err)
	}
}
