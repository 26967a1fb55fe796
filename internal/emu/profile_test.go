package emu

import (
	"math"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

func TestMeasureProfileMatchesAnnotations(t *testing.T) {
	sp := compileBench(t, "ijpeg")
	prof := workload.MustProfile("ijpeg")
	tr, err := StochasticTrace(sp, prof.Seed, 200000, prof.Phases)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := MeasureProfile(sp, tr)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	checked := 0
	for i, p := range ps {
		total += p.Exec
		if p.Exec < 500 || !sp.Blocks[i].HasCondBranch() {
			continue
		}
		if got, want := p.TakenProb(), sp.Blocks[i].TakenProb; math.Abs(got-want) > 0.12 {
			t.Errorf("block %d: measured %.3f vs annotated %.3f (n=%d)",
				i, got, want, p.Exec)
		}
		checked++
	}
	if total != int64(tr.Len()) {
		t.Errorf("profile counts %d, trace length %d", total, tr.Len())
	}
	if checked == 0 {
		t.Error("no hot conditional branches to check")
	}
}

func TestApplyProfile(t *testing.T) {
	sp := compileBench(t, "compress")
	prof := workload.MustProfile("compress")
	tr, err := StochasticTrace(sp, prof.Seed, 50000, prof.Phases)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := MeasureProfile(sp, tr)
	if err != nil {
		t.Fatal(err)
	}
	updated, err := ApplyProfile(sp, ps)
	if err != nil {
		t.Fatal(err)
	}
	if updated == 0 {
		t.Fatal("nothing re-annotated")
	}
	// Every executed block now carries its measured probability.
	for i, p := range ps {
		if p.Exec > 0 && sp.Blocks[i].TakenProb != p.TakenProb() {
			t.Fatalf("block %d not re-annotated", i)
		}
	}
	if _, err := ApplyProfile(sp, ps[:1]); err == nil {
		t.Error("accepted mismatched profile length")
	}
}

func TestMeasureProfileBadTrace(t *testing.T) {
	sp := compileBench(t, "compress")
	bad := &trace.Trace{Events: []trace.Event{trace.MakeEvent(10*len(sp.Blocks), false, 0)}}
	if _, err := MeasureProfile(sp, bad); err == nil {
		t.Error("accepted out-of-range trace")
	}
}

func TestColdBlocksKeepAnnotation(t *testing.T) {
	sp := compileBench(t, "gcc") // plenty of cold blocks under 1 phase
	tr, err := StochasticTrace(sp, 1, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := MeasureProfile(sp, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Find a cold block with a nonzero annotation.
	var before float64
	cold := -1
	for i, p := range ps {
		if p.Exec == 0 && sp.Blocks[i].TakenProb > 0 {
			cold = i
			before = sp.Blocks[i].TakenProb
			break
		}
	}
	if cold == -1 {
		t.Skip("no cold annotated blocks")
	}
	if _, err := ApplyProfile(sp, ps); err != nil {
		t.Fatal(err)
	}
	if sp.Blocks[cold].TakenProb != before {
		t.Error("cold block annotation overwritten")
	}
}
