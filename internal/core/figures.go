package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/declogic"
	"repro/internal/isa"
	"repro/internal/scheme"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options parameterizes an experiment suite run.
type Options struct {
	// Benchmarks to evaluate; nil selects the paper's eight.
	Benchmarks []string
	// TraceBlocks bounds dynamic trace length; <= 0 selects each
	// profile's default (400k blocks).
	TraceBlocks int
}

func (o Options) benchmarks() []string {
	if len(o.Benchmarks) == 0 {
		return workload.Benchmarks
	}
	return o.Benchmarks
}

// Suite compiles benchmarks once and serves every experiment. All state
// lives in the compilation driver — compilations, encoding artifacts and
// memoized experiment results are content-cached there under
// single-flight, so Suite methods are safe for concurrent use without
// any locking of their own. The per-benchmark studies fan out on the
// driver's bounded worker pool.
type Suite struct {
	opt Options
	drv *Driver
}

// NewSuite returns an empty suite on a fresh driver sized to GOMAXPROCS;
// programs compile lazily.
func NewSuite(opt Options) *Suite { return NewSuiteWithDriver(opt, NewDriver(0)) }

// NewSuiteWithDriver returns a suite running on an existing driver,
// sharing its worker pool and artifact cache (e.g. for warm re-runs or
// several concurrent suites).
func NewSuiteWithDriver(opt Options, d *Driver) *Suite {
	return &Suite{opt: opt, drv: d}
}

// Driver returns the suite's compilation driver.
func (s *Suite) Driver() *Driver { return s.drv }

// Compiled returns (compiling if needed) one benchmark.
func (s *Suite) Compiled(name string) (*Compiled, error) {
	return s.drv.CompileBenchmark(name)
}

// resultKey namespaces a memoized experiment result by the options that
// shape it.
func (s *Suite) resultKey(kind string) string {
	return fmt.Sprintf("result/%s/%s/blocks=%d",
		kind, strings.Join(s.opt.benchmarks(), ","), s.opt.TraceBlocks)
}

// forEachBenchmark runs fn for every benchmark on the driver's worker
// pool and collects the results in benchmark order. The first error wins.
func forEachBenchmark[T any](s *Suite, fn func(name string) (T, error)) ([]T, error) {
	names := s.opt.benchmarks()
	return mapN(s.drv, len(names), func(i int) (T, error) { return fn(names[i]) })
}

// ---------------------------------------------------------------------
// Figure 5: compression technique comparison, code segment only.

// Fig5Row is one benchmark's compression ratios (scheme bytes / base
// bytes, code segment only, no ATT).
type Fig5Row struct {
	Benchmark string
	BaseBytes int
	Ratio     map[string]float64
}

// Fig5Result is the Figure 5 reproduction.
type Fig5Result struct {
	Schemes []string
	Rows    []Fig5Row
}

// Figure5 measures the code-segment compression ratio of every scheme,
// fanning out across benchmarks on the driver's worker pool.
func (s *Suite) Figure5() (*Fig5Result, error) {
	rows, err := forEachBenchmark(s, func(name string) (Fig5Row, error) {
		c, err := s.Compiled(name)
		if err != nil {
			return Fig5Row{}, err
		}
		base, err := c.Image("base")
		if err != nil {
			return Fig5Row{}, err
		}
		row := Fig5Row{Benchmark: name, BaseBytes: base.CodeBytes, Ratio: map[string]float64{}}
		for _, scheme := range Figure5Schemes {
			im, err := c.Image(scheme)
			if err != nil {
				return Fig5Row{}, err
			}
			row.Ratio[scheme] = im.Ratio(base)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Schemes: Figure5Schemes, Rows: rows}, nil
}

// Average returns the mean ratio of one scheme across benchmarks.
func (r *Fig5Result) Average(scheme string) float64 {
	var xs []float64
	for _, row := range r.Rows {
		xs = append(xs, row.Ratio[scheme])
	}
	return stats.Mean(xs)
}

// Table renders the figure.
func (r *Fig5Result) Table() *stats.Table {
	t := &stats.Table{
		Title: "Figure 5: compression techniques comparison (code segment only, fraction of original size)",
		Cols:  append([]string{"benchmark", "base bytes"}, r.Schemes...),
	}
	for _, row := range r.Rows {
		cells := []string{row.Benchmark, fmt.Sprint(row.BaseBytes)}
		for _, sch := range r.Schemes {
			cells = append(cells, stats.Pct(row.Ratio[sch]))
		}
		t.AddRow(cells...)
	}
	avg := []string{"average", ""}
	for _, sch := range r.Schemes {
		avg = append(avg, stats.Pct(r.Average(sch)))
	}
	t.AddRow(avg...)
	return t
}

// ---------------------------------------------------------------------
// Figure 7: ATB characteristics / total code size (code + compressed ATT).

// Fig7Row is one benchmark's total-size accounting for one scheme.
type Fig7Row struct {
	Benchmark   string
	Scheme      string
	CodeBytes   int
	ATTBytes    int
	TotalRatio  float64 // (code+ATT) / base code
	ATTOverhead float64 // ATT / base code — the paper's ~15.5% figure
}

// Fig7Result is the Figure 7 reproduction.
type Fig7Result struct {
	Rows []Fig7Row
}

// Figure7 measures total ROM size including the compressed ATT for the
// two headline schemes (full and tailored), fanning out across
// benchmarks on the driver's worker pool.
func (s *Suite) Figure7() (*Fig7Result, error) {
	perBench, err := forEachBenchmark(s, func(name string) ([]Fig7Row, error) {
		c, err := s.Compiled(name)
		if err != nil {
			return nil, err
		}
		base, err := c.Image("base")
		if err != nil {
			return nil, err
		}
		var rows []Fig7Row
		for _, scheme := range []string{"full", "tailored"} {
			im, err := c.Image(scheme)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig7Row{
				Benchmark:   name,
				Scheme:      scheme,
				CodeBytes:   im.CodeBytes,
				ATTBytes:    im.ATT.CompressedBytes,
				TotalRatio:  float64(im.TotalBytes()) / float64(base.CodeBytes),
				ATTOverhead: float64(im.ATT.CompressedBytes) / float64(base.CodeBytes),
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{}
	for _, rows := range perBench {
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// MeanATTOverhead returns the average ATT overhead across rows.
func (r *Fig7Result) MeanATTOverhead() float64 {
	var xs []float64
	for _, row := range r.Rows {
		xs = append(xs, row.ATTOverhead)
	}
	return stats.Mean(xs)
}

// Table renders the figure.
func (r *Fig7Result) Table() *stats.Table {
	t := &stats.Table{
		Title: "Figure 7: total code size with Address Translation Table (fractions of original code size)",
		Cols:  []string{"benchmark", "scheme", "code B", "ATT B", "code+ATT/base", "ATT/base"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark, row.Scheme,
			fmt.Sprint(row.CodeBytes), fmt.Sprint(row.ATTBytes),
			stats.Pct(row.TotalRatio), stats.Pct(row.ATTOverhead))
	}
	t.AddRow("average", "", "", "", "", stats.Pct(r.MeanATTOverhead()))
	return t
}

// ---------------------------------------------------------------------
// Figure 10: Huffman decoder complexity.

// Fig10Row is one benchmark's decoder complexities.
type Fig10Row struct {
	Benchmark  string
	Complexity map[string]declogic.Complexity
	Tailored   declogic.Complexity
}

// Fig10Result is the Figure 10 reproduction.
type Fig10Result struct {
	Schemes []string // Huffman schemes, report order
	Rows    []Fig10Row
}

// Figure10 evaluates the transistor-count model for every Huffman
// decoder, plus the tailored PLA estimate for contrast, fanning out
// across benchmarks on the driver's worker pool.
func (s *Suite) Figure10() (*Fig10Result, error) {
	schemes := []string{"byte", "stream", "stream_1", "full"}
	rows, err := forEachBenchmark(s, func(name string) (Fig10Row, error) {
		c, err := s.Compiled(name)
		if err != nil {
			return Fig10Row{}, err
		}
		row := Fig10Row{Benchmark: name, Complexity: map[string]declogic.Complexity{}}
		for _, scheme := range schemes {
			enc, err := c.Encoder(scheme)
			if err != nil {
				return Fig10Row{}, err
			}
			row.Complexity[scheme] = declogic.ForTables(scheme, enc.Tables())
		}
		tl, err := c.Tailored()
		if err != nil {
			return Fig10Row{}, err
		}
		row.Tailored = declogic.Complexity{
			Scheme:      "tailored",
			Transistors: declogic.TailoredTransistors(tl.DictionaryEntries(), isa.OpBits),
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Schemes: schemes, Rows: rows}, nil
}

// Table renders the figure (log10 transistors, as in the paper's plot).
func (r *Fig10Result) Table() *stats.Table {
	t := &stats.Table{
		Title: "Figure 10: decoder complexity, log10(transistors) by the T-equation (n=longest code, k=entries)",
		Cols:  []string{"benchmark", "byte", "stream", "stream_1", "full", "tailored-PLA", "full n/k"},
	}
	for _, row := range r.Rows {
		full := row.Complexity["full"]
		t.AddRow(row.Benchmark,
			stats.F(row.Complexity["byte"].Log10Transistors(), 2),
			stats.F(row.Complexity["stream"].Log10Transistors(), 2),
			stats.F(row.Complexity["stream_1"].Log10Transistors(), 2),
			stats.F(full.Log10Transistors(), 2),
			stats.F(row.Tailored.Log10Transistors(), 2),
			fmt.Sprintf("%d/%d", full.N, full.K))
	}
	return t
}

// ---------------------------------------------------------------------
// Figure 13: cache study summary — operations delivered per cycle.

// Fig13Row is one benchmark's delivered IPC under each organization.
type Fig13Row struct {
	Benchmark string
	Ideal     float64
	Results   map[string]cache.Result // keyed by org label
}

// IPC returns the delivered IPC for one organization label.
func (r Fig13Row) IPC(org string) float64 { return r.Results[org].IPC() }

// Fig13Result is the Figure 13 reproduction.
type Fig13Result struct {
	Rows []Fig13Row
}

// Figure13 runs the full trace-driven cache study over the registry's
// study pairings (Base holds the original encoding, Compressed the full
// op compression scheme, Tailored the tailored ISA): 16 KB 2-way caches
// (20 KB effective for Base), Table 1 timing, per-block ATB predictor.
// Each benchmark's trace is walked once and fanned out over the three
// pairings' simulators. Benchmarks simulate concurrently on the driver's
// pool; the result is memoized in the driver under single-flight (Figure
// 14 reads the same runs, concurrent callers share one study).
func (s *Suite) Figure13() (*Fig13Result, error) {
	return memoAs(s.drv, s.resultKey("fig13"), func() (*Fig13Result, error) {
		rows, err := forEachBenchmark(s, func(name string) (Fig13Row, error) {
			c, err := s.Compiled(name)
			if err != nil {
				return Fig13Row{}, err
			}
			pairings := scheme.StudyPairings()
			results, err := s.replayPairings(c, pairings)
			if err != nil {
				return Fig13Row{}, err
			}
			row := Fig13Row{Benchmark: name, Results: map[string]cache.Result{}}
			for i, p := range pairings {
				row.Results[p.Name] = results[i]
			}
			row.Ideal = row.Results["Base"].IdealIPC()
			return row, nil
		})
		if err != nil {
			return nil, err
		}
		return &Fig13Result{Rows: rows}, nil
	})
}

// Averages returns mean IPC per column (Ideal, Base, Compressed,
// Tailored).
func (r *Fig13Result) Averages() map[string]float64 {
	cols := map[string][]float64{}
	for _, row := range r.Rows {
		cols["Ideal"] = append(cols["Ideal"], row.Ideal)
		for org, res := range row.Results {
			cols[org] = append(cols[org], res.IPC())
		}
	}
	out := map[string]float64{}
	for k, xs := range cols {
		out[k] = stats.Mean(xs)
	}
	return out
}

// Table renders the figure.
func (r *Fig13Result) Table() *stats.Table {
	t := &stats.Table{
		Title: "Figure 13: cache study summary — operations delivered per cycle (6-issue core)",
		Cols: []string{"benchmark", "Ideal", "Base", "Compressed", "Tailored",
			"base miss", "mispred"},
	}
	for _, row := range r.Rows {
		base := row.Results["Base"]
		t.AddRow(row.Benchmark,
			stats.F(row.Ideal, 3),
			stats.F(row.IPC("Base"), 3),
			stats.F(row.IPC("Compressed"), 3),
			stats.F(row.IPC("Tailored"), 3),
			stats.Pct(base.MissRate()),
			stats.Pct(base.MispredictRate()))
	}
	avg := r.Averages()
	t.AddRow("average",
		stats.F(avg["Ideal"], 3), stats.F(avg["Base"], 3),
		stats.F(avg["Compressed"], 3), stats.F(avg["Tailored"], 3), "", "")
	return t
}

// ---------------------------------------------------------------------
// Figure 14: memory bus bit flips.

// Fig14Row is one benchmark's bus activity per organization.
type Fig14Row struct {
	Benchmark string
	Flips     map[string]int64   // org label -> bit flips
	Relative  map[string]float64 // org label -> flips / base flips
}

// Fig14Result is the Figure 14 reproduction.
type Fig14Result struct {
	Rows []Fig14Row
}

// Figure14 measures memory-bus bit flips due to instruction cache misses
// under each organization (same simulations as Figure 13).
func (s *Suite) Figure14() (*Fig14Result, error) {
	f13, err := s.Figure13()
	if err != nil {
		return nil, err
	}
	res := &Fig14Result{}
	for _, row := range f13.Rows {
		r14 := Fig14Row{
			Benchmark: row.Benchmark,
			Flips:     map[string]int64{},
			Relative:  map[string]float64{},
		}
		base := row.Results["Base"].BitFlips
		for org, cr := range row.Results {
			r14.Flips[org] = cr.BitFlips
			if base > 0 {
				r14.Relative[org] = float64(cr.BitFlips) / float64(base)
			}
		}
		res.Rows = append(res.Rows, r14)
	}
	return res, nil
}

// Table renders the figure.
func (r *Fig14Result) Table() *stats.Table {
	t := &stats.Table{
		Title: "Figure 14: memory bus bit flips (instruction misses; relative to Base)",
		Cols:  []string{"benchmark", "Base flips", "Compressed", "Tailored", "Comp/Base", "Tail/Base"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark,
			fmt.Sprint(row.Flips["Base"]),
			fmt.Sprint(row.Flips["Compressed"]),
			fmt.Sprint(row.Flips["Tailored"]),
			stats.Pct(row.Relative["Compressed"]),
			stats.Pct(row.Relative["Tailored"]))
	}
	return t
}

// ---------------------------------------------------------------------
// Stream-configuration exploration (the six configurations of §2.2).

// StreamSweepRow reports one configuration's aggregate ratio and decoder
// size across benchmarks.
type StreamSweepRow struct {
	Config    string
	MeanRatio float64
	Log10T    float64 // decoder complexity, averaged log10
}

// StreamSweep evaluates all six stream configurations — the exploration
// behind the paper's choice of "stream" (smallest decoder) and "stream_1"
// (best size) — fanning out across benchmarks on the driver's pool.
func (s *Suite) StreamSweep() ([]StreamSweepRow, error) {
	type benchPoint struct {
		ratio  map[string]float64
		log10T map[string]float64
	}
	points, err := forEachBenchmark(s, func(name string) (benchPoint, error) {
		c, err := s.Compiled(name)
		if err != nil {
			return benchPoint{}, err
		}
		base, err := c.Image("base")
		if err != nil {
			return benchPoint{}, err
		}
		pt := benchPoint{ratio: map[string]float64{}, log10T: map[string]float64{}}
		for _, cfgName := range scheme.GroupNames(scheme.GroupStream) {
			im, err := c.Image(cfgName)
			if err != nil {
				return benchPoint{}, err
			}
			enc, err := c.Encoder(cfgName)
			if err != nil {
				return benchPoint{}, err
			}
			pt.ratio[cfgName] = im.Ratio(base)
			pt.log10T[cfgName] = declogic.ForTables(cfgName, enc.Tables()).Log10Transistors()
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	agg := map[string][]float64{}
	aggT := map[string][]float64{}
	var names []string
	for _, pt := range points {
		for cfgName, r := range pt.ratio {
			if _, seen := agg[cfgName]; !seen {
				names = append(names, cfgName)
			}
			agg[cfgName] = append(agg[cfgName], r)
			aggT[cfgName] = append(aggT[cfgName], pt.log10T[cfgName])
		}
	}
	sort.Strings(names)
	var rows []StreamSweepRow
	for _, n := range names {
		rows = append(rows, StreamSweepRow{
			Config:    n,
			MeanRatio: stats.Mean(agg[n]),
			Log10T:    stats.Mean(aggT[n]),
		})
	}
	return rows, nil
}
