package core

import (
	"repro/internal/cache"
	"repro/internal/image"
	"repro/internal/layout"
	"repro/internal/stats"
)

// LayoutRow compares natural vs profile-driven code placement (§3.3's
// compile-time relayout) for one benchmark under the Base organization.
type LayoutRow struct {
	Benchmark   string
	NaturalMiss float64
	HotMiss     float64
	NaturalIPC  float64
	HotIPC      float64
}

// LayoutStudy measures what §3.3's first option — generating a new code
// layout at compile time — buys on top of dynamic ATB translation:
// hot-path chains packed together shrink the lines the working set
// touches.
func (s *Suite) LayoutStudy() ([]LayoutRow, error) {
	return forEachBenchmark(s, func(name string) (LayoutRow, error) {
		c, err := s.Compiled(name)
		if err != nil {
			return LayoutRow{}, err
		}
		tr, err := c.Trace(s.opt.TraceBlocks)
		if err != nil {
			return LayoutRow{}, err
		}
		enc, err := c.Encoder("base")
		if err != nil {
			return LayoutRow{}, err
		}
		run := func(order layout.Order) (cache.Result, error) {
			im, err := image.BuildOrdered(c.Prog, enc, order)
			if err != nil {
				return cache.Result{}, err
			}
			sim, err := cache.NewSim(cache.OrgBase, cache.DefaultConfig(cache.OrgBase), im, c.Prog)
			if err != nil {
				return cache.Result{}, err
			}
			return sim.Run(tr)
		}
		natural, err := run(nil)
		if err != nil {
			return LayoutRow{}, err
		}
		hot, err := layout.FromTrace(c.Prog, tr)
		if err != nil {
			return LayoutRow{}, err
		}
		tuned, err := run(hot)
		if err != nil {
			return LayoutRow{}, err
		}
		return LayoutRow{
			Benchmark:   name,
			NaturalMiss: natural.MissRate(),
			HotMiss:     tuned.MissRate(),
			NaturalIPC:  natural.IPC(),
			HotIPC:      tuned.IPC(),
		}, nil
	})
}

// LayoutTable renders the study.
func LayoutTable(rows []LayoutRow) *stats.Table {
	t := &stats.Table{
		Title: "Profile-driven code layout (§3.3): Base organization, natural vs hot placement",
		Cols:  []string{"benchmark", "miss", "miss+layout", "IPC", "IPC+layout"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, stats.Pct(r.NaturalMiss), stats.Pct(r.HotMiss),
			stats.F(r.NaturalIPC, 3), stats.F(r.HotIPC, 3))
	}
	return t
}

// PredictorRow is one entry of the future-work predictor study (§7: "the
// effects of more elaborate branch prediction mechanisms"): the same
// benchmark under Base and Compressed with a given direction predictor.
type PredictorRow struct {
	Predictor      string
	MispredictRate float64
	BaseIPC        float64
	CompressedIPC  float64
}

// PredictorSweep runs one benchmark under bimodal (the paper's), gshare,
// PAs and a perfect predictor. Because the Compressed organization's
// losses come from the decoder stage's misprediction penalty, better
// predictors close (and eventually invert) its gap to Base.
func (s *Suite) PredictorSweep(bench string) ([]PredictorRow, error) {
	c, err := s.Compiled(bench)
	if err != nil {
		return nil, err
	}
	baseIm, err := c.Image("base")
	if err != nil {
		return nil, err
	}
	fullIm, err := c.Image("full")
	if err != nil {
		return nil, err
	}
	sweep := []struct {
		label   string
		kind    cache.PredictorKind
		perfect bool
	}{
		{"bimodal", cache.PredictorBimodal, false},
		{"gshare", cache.PredictorGShare, false},
		{"pas", cache.PredictorPAs, false},
		{"perfect", cache.PredictorDefault, true},
	}
	// One Base and one Compressed simulator per predictor, all fed by
	// one walk of the trace.
	var sims []*cache.Sim
	for _, pred := range sweep {
		mk := func(org cache.Org) cache.Config {
			cfg := cache.DefaultConfig(org)
			cfg.Predictor = pred.kind
			cfg.PerfectPrediction = pred.perfect
			return cfg
		}
		bSim, err := cache.NewSim(cache.OrgBase, mk(cache.OrgBase), baseIm, c.Prog)
		if err != nil {
			return nil, err
		}
		cSim, err := cache.NewSim(cache.OrgCompressed, mk(cache.OrgCompressed), fullIm, c.Prog)
		if err != nil {
			return nil, err
		}
		sims = append(sims, bSim, cSim)
	}
	results, err := s.replay(c, sims...)
	if err != nil {
		return nil, err
	}
	rows := make([]PredictorRow, len(sweep))
	for i, pred := range sweep {
		bRes, cRes := results[2*i], results[2*i+1]
		rows[i] = PredictorRow{
			Predictor:      pred.label,
			MispredictRate: bRes.MispredictRate(),
			BaseIPC:        bRes.IPC(),
			CompressedIPC:  cRes.IPC(),
		}
	}
	return rows, nil
}

// SpecRow is one benchmark's before/after comparison for the
// treegion-style speculative hoisting pass (sched.Speculate): what the
// paper's global scheduling buys and what it costs the encodings (the S
// bit stops being constant, so the tailored ISA can no longer drop it,
// and whole-op dictionaries grow).
type SpecRow struct {
	Benchmark     string
	Hoisted       int
	DensityPlain  float64
	DensitySpec   float64
	FullPlain     float64 // full-scheme ratio without speculation
	FullSpec      float64
	TailoredPlain float64
	TailoredSpec  float64
}

// SpeculationStudy compiles each benchmark twice — with and without the
// speculative hoisting pass — and compares schedule density and the two
// headline compression ratios. Benchmarks fan out on the driver's pool;
// the plain compilation comes from the shared artifact cache.
func (s *Suite) SpeculationStudy() ([]SpecRow, error) {
	return forEachBenchmark(s, func(name string) (SpecRow, error) {
		plain, err := s.Compiled(name)
		if err != nil {
			return SpecRow{}, err
		}
		spec, hoisted, err := CompileBenchmarkSpeculative(name)
		if err != nil {
			return SpecRow{}, err
		}
		ratio := func(c *Compiled, scheme string) (float64, error) {
			base, err := c.Image("base")
			if err != nil {
				return 0, err
			}
			im, err := c.Image(scheme)
			if err != nil {
				return 0, err
			}
			return im.Ratio(base), nil
		}
		row := SpecRow{
			Benchmark:    name,
			Hoisted:      hoisted,
			DensityPlain: plain.Prog.Density(),
			DensitySpec:  spec.Prog.Density(),
		}
		if row.FullPlain, err = ratio(plain, "full"); err != nil {
			return SpecRow{}, err
		}
		if row.FullSpec, err = ratio(spec, "full"); err != nil {
			return SpecRow{}, err
		}
		if row.TailoredPlain, err = ratio(plain, "tailored"); err != nil {
			return SpecRow{}, err
		}
		if row.TailoredSpec, err = ratio(spec, "tailored"); err != nil {
			return SpecRow{}, err
		}
		return row, nil
	})
}

// SpeculationTable renders the study.
func SpeculationTable(rows []SpecRow) *stats.Table {
	t := &stats.Table{
		Title: "Treegion-style speculation study: schedule density vs encoding cost",
		Cols: []string{"benchmark", "hoisted", "density", "density+spec",
			"full", "full+spec", "tailored", "tailored+spec"},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, stats.F(float64(r.Hoisted), 0),
			stats.F(r.DensityPlain, 3), stats.F(r.DensitySpec, 3),
			stats.Pct(r.FullPlain), stats.Pct(r.FullSpec),
			stats.Pct(r.TailoredPlain), stats.Pct(r.TailoredSpec))
	}
	return t
}

// PredictorTable renders the sweep.
func PredictorTable(bench string, rows []PredictorRow) *stats.Table {
	t := &stats.Table{
		Title: "Future-work predictor study (" + bench + "): better prediction closes Compressed's gap",
		Cols:  []string{"predictor", "mispredict", "Base IPC", "Compressed IPC", "Comp/Base"},
	}
	for _, r := range rows {
		t.AddRow(r.Predictor, stats.Pct(r.MispredictRate),
			stats.F(r.BaseIPC, 3), stats.F(r.CompressedIPC, 3),
			stats.Pct(r.CompressedIPC/r.BaseIPC))
	}
	return t
}
