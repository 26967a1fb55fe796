package core

import (
	"encoding/json"
	"testing"

	"repro/internal/cache"
	"repro/internal/scheme"
)

func TestDefaultSweepPoints(t *testing.T) {
	preds := len(cache.PredictorKinds())
	for _, p := range scheme.Pairings() {
		spec, ok := p.Org.Spec()
		if !ok {
			t.Fatalf("pairing %s: no org spec", p.Name)
		}
		want := 3 * 3 * preds // sets x assoc x predictors
		if spec.HasL0 {
			want *= 2 // x L0 capacities
		}
		points := DefaultSweepPoints(p)
		if len(points) != want {
			t.Errorf("%s: %d sweep points, want %d", p.Name, len(points), want)
		}
		if len(points) < 24 {
			t.Errorf("%s: %d sweep points, want >= 24", p.Name, len(points))
		}
		for _, pt := range points {
			cfg := pt.Config()
			if cfg.Sets <= 0 || cfg.Assoc <= 0 || cfg.LineBytes <= 0 {
				t.Errorf("%s: invalid sweep config %+v", p.Name, cfg)
			}
			if spec.HasL0 != (cfg.L0Ops > 0 && pt.L0Ops > 0) {
				t.Errorf("%s: L0Ops %d inconsistent with HasL0=%v", p.Name, cfg.L0Ops, spec.HasL0)
			}
		}
	}
}

func TestGeometrySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a benchmark; too slow for -short")
	}
	s := NewSuite(Options{Benchmarks: []string{"compress"}, TraceBlocks: 5000})
	p, ok := scheme.PairingByName("Compressed")
	if !ok {
		t.Fatal("no Compressed pairing")
	}
	points := DefaultSweepPoints(p)
	rows, err := s.GeometrySweep("compress", points)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(points) {
		t.Fatalf("%d rows for %d points", len(rows), len(points))
	}
	for i, r := range rows {
		pt := points[i]
		if r.Sets != pt.Sets || r.Assoc != pt.Assoc {
			t.Errorf("row %d: geometry %dx%d, want %dx%d", i, r.Sets, r.Assoc, pt.Sets, pt.Assoc)
		}
		if r.IPC <= 0 || r.IPC > 16 {
			t.Errorf("row %d: implausible IPC %v", i, r.IPC)
		}
		if r.L0Ops != pt.L0Ops {
			t.Errorf("row %d: L0Ops %d, want %d", i, r.L0Ops, pt.L0Ops)
		}
		if r.Predictor == "" {
			t.Errorf("row %d: empty predictor label", i)
		}
	}
	// Splitting the points over another worker count (4 uneven groups)
	// must not move a counter, and every point must read what its own
	// Sim.Run over the materialized trace reads.
	c, err := s.Compiled("compress")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.Trace(5000)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewSuiteWithDriver(Options{Benchmarks: []string{"compress"}, TraceBlocks: 5000},
		NewDriver(4)).GeometrySweep("compress", points)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range points {
		sim, err := c.SimFor(pt.Pairing, pt.Config())
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if rows[i].Result != want || wide[i].Result != want {
			t.Errorf("point %d: sweep %+v / 4-worker sweep %+v, want %+v",
				i, rows[i].Result, wide[i].Result, want)
		}
	}

	// Bigger caches can't fetch more lines: compare the smallest and
	// largest geometry at equal predictor and L0 capacity.
	first, last := rows[0], rows[len(rows)-1]
	if last.Result.LinesFetched > first.Result.LinesFetched {
		t.Errorf("largest geometry fetched more lines (%d) than smallest (%d)",
			last.Result.LinesFetched, first.Result.LinesFetched)
	}

	data, err := SweepJSON(rows)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []SweepRow
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("sweep JSON does not round-trip: %v", err)
	}
	if len(decoded) != len(rows) {
		t.Fatalf("JSON round-trip lost rows: %d != %d", len(decoded), len(rows))
	}
	if got := SweepTable(rows).Render(); got == "" {
		t.Error("empty sweep table")
	}
}
