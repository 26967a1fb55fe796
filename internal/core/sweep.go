package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/cache"
	"repro/internal/scheme"
	"repro/internal/stats"
)

// SweepPoint is one simulation point of a geometry/predictor sweep: a
// registered pairing plus the Config overrides to apply to its paper
// default (zero values keep the default).
type SweepPoint struct {
	Pairing   scheme.Pairing
	Sets      int
	Assoc     int
	LineBytes int
	L0Ops     int
	Predictor cache.PredictorKind
}

// Config materializes the point's cache configuration.
func (p SweepPoint) Config() cache.Config {
	cfg := cache.DefaultConfig(p.Pairing.Org)
	if p.Sets > 0 {
		cfg.Sets = p.Sets
	}
	if p.Assoc > 0 {
		cfg.Assoc = p.Assoc
	}
	if p.LineBytes > 0 {
		cfg.LineBytes = p.LineBytes
	}
	if p.L0Ops > 0 {
		cfg.L0Ops = p.L0Ops
	}
	cfg.Predictor = p.Predictor
	return cfg
}

// SweepRow is one completed sweep point, machine-readable for reports.
type SweepRow struct {
	Benchmark      string       `json:"benchmark"`
	Pairing        string       `json:"pairing"`
	Sets           int          `json:"sets"`
	Assoc          int          `json:"assoc"`
	LineBytes      int          `json:"line_bytes"`
	L0Ops          int          `json:"l0_ops,omitempty"`
	Predictor      string       `json:"predictor"`
	CapacityKB     float64      `json:"capacity_kb"`
	IPC            float64      `json:"ipc"`
	MissRate       float64      `json:"miss_rate"`
	MispredictRate float64      `json:"mispredict_rate"`
	Result         cache.Result `json:"result"`
}

// DefaultSweepPoints enumerates the table-driven default grid for one
// pairing: sets {128, 256, 512} × associativity {1, 2, 4} × every
// built-in direction predictor, crossed with L0 capacities {16, 32}
// when the organization's spec carries an L0 buffer. The grid adapts to
// the pairing's spec — sweeping a new pairing row needs no edit here.
func DefaultSweepPoints(p scheme.Pairing) []SweepPoint {
	spec, ok := p.Org.Spec()
	if !ok {
		return nil
	}
	l0s := []int{0}
	if spec.HasL0 {
		l0s = []int{16, 32}
	}
	var points []SweepPoint
	for _, sets := range []int{128, 256, 512} {
		for _, assoc := range []int{1, 2, 4} {
			for _, kind := range cache.PredictorKinds() {
				for _, l0 := range l0s {
					points = append(points, SweepPoint{
						Pairing: p, Sets: sets, Assoc: assoc,
						L0Ops: l0, Predictor: kind,
					})
				}
			}
		}
	}
	return points
}

// GeometrySweep runs every point against one benchmark on the driver's
// worker pool and returns the rows in point order. The compilation and
// its images build once through the artifact cache. Point i goes to
// group i mod Driver.Workers(), and each group replays one walk of the
// trace through all its simulators, so the sweep walks the trace once
// per worker, not once per point. Dealing the points round-robin evens
// the groups' work: the default grid is ordered by set count, and the
// small caches, which miss most, replay slowest.
func (s *Suite) GeometrySweep(bench string, points []SweepPoint) ([]SweepRow, error) {
	c, err := s.Compiled(bench)
	if err != nil {
		return nil, err
	}
	groups := min(s.drv.Workers(), len(points))
	// Build every point's simulator serially so the fan-out below is pure
	// simulation (image builds inside mapN would hold worker slots while
	// waiting on the single-flight build).
	dealt := make([][]*cache.Sim, groups)
	for i, pt := range points {
		sim, err := c.SimFor(pt.Pairing, pt.Config())
		if err != nil {
			return nil, err
		}
		dealt[i%groups] = append(dealt[i%groups], sim)
	}
	parts, err := mapN(s.drv, groups, func(g int) ([]cache.Result, error) {
		return s.replay(c, dealt[g]...)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]SweepRow, len(points))
	for i, pt := range points {
		r := parts[i%groups][i/groups]
		cfg := pt.Config()
		pred := string(cfg.Predictor)
		if pred == "" {
			pred = string(cache.PredictorBimodal)
		}
		rows[i] = SweepRow{
			Benchmark:      bench,
			Pairing:        pt.Pairing.Name,
			Sets:           cfg.Sets,
			Assoc:          cfg.Assoc,
			LineBytes:      cfg.LineBytes,
			Predictor:      pred,
			CapacityKB:     float64(cfg.Sets*cfg.Assoc*cfg.LineBytes) / 1024,
			IPC:            r.IPC(),
			MissRate:       r.MissRate(),
			MispredictRate: r.MispredictRate(),
			Result:         r,
		}
		if spec, ok := pt.Pairing.Org.Spec(); ok && spec.HasL0 {
			rows[i].L0Ops = cfg.L0Ops
		}
	}
	return rows, nil
}

// SweepTable renders sweep rows for terminals.
func SweepTable(rows []SweepRow) *stats.Table {
	t := &stats.Table{
		Title: "Geometry/predictor sweep (registry-driven)",
		Cols: []string{"benchmark", "pairing", "sets", "assoc", "line",
			"l0", "predictor", "KB", "IPC", "miss", "mispredict"},
	}
	for _, r := range rows {
		l0 := "-"
		if r.L0Ops > 0 {
			l0 = fmt.Sprint(r.L0Ops)
		}
		t.AddRow(r.Benchmark, r.Pairing, fmt.Sprint(r.Sets), fmt.Sprint(r.Assoc),
			fmt.Sprint(r.LineBytes), l0, r.Predictor,
			stats.F(r.CapacityKB, 1), stats.F(r.IPC, 3),
			stats.Pct(r.MissRate), stats.Pct(r.MispredictRate))
	}
	return t
}

// SweepJSON renders sweep rows as an indented JSON report.
func SweepJSON(rows []SweepRow) ([]byte, error) {
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
