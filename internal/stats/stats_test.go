package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil)")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Error("Median(nil)")
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd Median = %g", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even Median = %g", got)
	}
}

func TestQuartiles(t *testing.T) {
	if q1, m, q3 := Quartiles(nil); q1 != 0 || m != 0 || q3 != 0 {
		t.Error("Quartiles(nil)")
	}
	if q1, m, q3 := Quartiles([]float64{7}); q1 != 7 || m != 7 || q3 != 7 {
		t.Errorf("one-sample Quartiles = %g %g %g", q1, m, q3)
	}
	if q1, m, q3 := Quartiles([]float64{5, 1, 4, 2, 3}); q1 != 2 || m != 3 || q3 != 4 {
		t.Errorf("odd Quartiles = %g %g %g, want 2 3 4", q1, m, q3)
	}
	xs := []float64{4, 1, 2, 3}
	if q1, m, q3 := Quartiles(xs); q1 != 1.75 || m != 2.5 || q3 != 3.25 {
		t.Errorf("even Quartiles = %g %g %g, want 1.75 2.5 3.25", q1, m, q3)
	}
	if xs[0] != 4 {
		t.Error("Quartiles reordered its input")
	}
}

func TestGeomean(t *testing.T) {
	if Geomean(nil) != 0 {
		t.Error("Geomean(nil)")
	}
	if got := Geomean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Geomean = %g", got)
	}
	if Geomean([]float64{1, -1}) != 0 {
		t.Error("Geomean of non-positive input should be 0")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "demo", Cols: []string{"name", "value"}}
	tab.AddRow("alpha", "1")
	tab.AddRow("a-very-long-name", "23456")
	s := tab.Render()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "a-very-long-name") {
		t.Errorf("render missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// title + header + rule + 2 rows
	if len(lines) != 5 {
		t.Errorf("rendered %d lines, want 5:\n%s", len(lines), s)
	}
	// Aligned columns: the value column is right-aligned.
	if !strings.HasSuffix(lines[3], "    1") && !strings.Contains(lines[3], " 1") {
		t.Errorf("value column alignment: %q", lines[3])
	}
}

func TestFormatting(t *testing.T) {
	if F(1.23456, 2) != "1.23" {
		t.Error("F")
	}
	if Pct(0.125) != "12.5%" {
		t.Error("Pct")
	}
}
