package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// figureLines is how many leading lines of docs/RESULTS.txt hold
// Figures 5, 7, 10, 13 and 14 as the figure suite renders them.
const figureLines = 71

// minRegens is the fewest timed regenerations a figures run makes,
// however short --seconds is.
const minRegens = 3

// figuresSetups is how many times a figures run sets up; the reported
// setup_s is the median.
const figuresSetups = 5

// figureSet lists the regenerated figures in report order.
var figureSet = []struct {
	name  string
	table func(*core.Suite) (*stats.Table, error)
}{
	{"5", func(s *core.Suite) (*stats.Table, error) { r, err := s.Figure5(); return tableOf(r, err) }},
	{"7", func(s *core.Suite) (*stats.Table, error) { r, err := s.Figure7(); return tableOf(r, err) }},
	{"10", func(s *core.Suite) (*stats.Table, error) { r, err := s.Figure10(); return tableOf(r, err) }},
	{"13", func(s *core.Suite) (*stats.Table, error) { r, err := s.Figure13(); return tableOf(r, err) }},
	{"14", func(s *core.Suite) (*stats.Table, error) { r, err := s.Figure14(); return tableOf(r, err) }},
}

func tableOf[R interface{ Table() *stats.Table }](r R, err error) (*stats.Table, error) {
	if err != nil {
		return nil, err
	}
	return r.Table(), nil
}

// expectedFigures reads the committed rendering of the five figures.
func expectedFigures(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "docs", "RESULTS.txt"))
	if err != nil {
		return "", fmt.Errorf("read expected figures: %w", err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < figureLines {
		return "", fmt.Errorf("docs/RESULTS.txt has %d lines, want at least %d", len(lines), figureLines)
	}
	return strings.Join(lines[:figureLines], ""), nil
}

// regenerateFigures is the figures job: a fresh driver, all eight
// benchmarks compiled with their default 400k-block traces, and the
// five figures rendered as tepicbench prints them. Each figure is one
// span under parent.
func regenerateFigures(tr *tracer, parent int32) (string, error) {
	s := core.NewSuite(core.Options{})
	var b strings.Builder
	for _, f := range figureSet {
		id := tr.begin("figure."+f.name, parent, 0)
		t, err := f.table(s)
		tr.end(id)
		if err != nil {
			return "", fmt.Errorf("figure %s: %w", f.name, err)
		}
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// figuresSetup reads the expected output and compiles every benchmark
// on a throwaway driver, which brings the runtime's heap and the
// process's pages to their working size before the first timed
// regeneration.
func figuresSetup(root string) (string, error) {
	want, err := expectedFigures(root)
	if err != nil {
		return "", err
	}
	d := core.NewDriver(0)
	for _, name := range workload.Benchmarks {
		if _, err := d.CompileBenchmark(name); err != nil {
			return "", fmt.Errorf("compile %s: %w", name, err)
		}
	}
	return want, nil
}

// runFigures regenerates the figures in a closed loop for the timed
// phase and checks every regeneration byte for byte.
func runFigures(o options) (*outcome, error) {
	heap := startHeapSampler()
	oc := &outcome{}
	var want string
	for i := 0; i < figuresSetups; i++ {
		runtime.GC()
		d, err := timeIt(func() (err error) {
			want, err = figuresSetup(o.root)
			return err
		})
		if err != nil {
			heap.stopMB()
			return nil, err
		}
		oc.Setups = append(oc.Setups, d.Seconds())
	}

	var regens []float64
	cpu0 := cpuTime()
	start := time.Now()
	for time.Since(start).Seconds() < o.seconds || len(regens) < minRegens {
		var got string
		d, err := timeIt(func() (err error) {
			got, err = regenerateFigures(nil, 0)
			return err
		})
		oc.Attempted++
		switch {
		case err != nil:
			oc.Failed++
			oc.Problems = append(oc.Problems, fmt.Sprintf("regeneration %d: %v", len(regens), err))
		case got != want:
			oc.Failed++
			oc.Problems = append(oc.Problems, fmt.Sprintf("regeneration %d differs from docs/RESULTS.txt", len(regens)))
		}
		regens = append(regens, d.Seconds())
	}
	oc.CPUMS = ms(cpuTime()-cpu0) / float64(len(regens))
	oc.HeapMB = heap.stopMB()
	figS := median(regens)
	oc.Named = append(oc.Named, named{Name: "figures_s", Value: figS, Unit: "s",
		Note: fmt.Sprintf("median of %d regenerations", len(regens))})
	return oc, nil
}
