package main

import (
	"strings"
	"testing"
)

func simOut(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(append(args, "-blocks", "20000"), &sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestRunBase(t *testing.T) {
	out := simOut(t, "-bench", "compress", "-org", "base")
	for _, want := range []string{"Base organization", "IPC", "miss rate", "ATB"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "20KB") {
		t.Errorf("base cache should be 20KB effective:\n%s", out)
	}
}

func TestRunCompressedWithL0(t *testing.T) {
	out := simOut(t, "-bench", "compress", "-org", "compressed", "-l0", "64")
	if !strings.Contains(out, "L0 buffer") || !strings.Contains(out, "64 ops capacity") {
		t.Errorf("L0 report missing:\n%s", out)
	}
	if !strings.Contains(out, "16KB") {
		t.Errorf("compressed cache should be 16KB:\n%s", out)
	}
}

func TestRunCodePack(t *testing.T) {
	out := simOut(t, "-bench", "compress", "-org", "codepack")
	if !strings.Contains(out, "CodePack organization") {
		t.Errorf("codepack label missing:\n%s", out)
	}
}

func TestRunPredictorAndGeometry(t *testing.T) {
	out := simOut(t, "-bench", "go", "-org", "base", "-predictor", "gshare",
		"-sets", "128", "-assoc", "4")
	if !strings.Contains(out, "128 sets x 4 ways") {
		t.Errorf("geometry override ignored:\n%s", out)
	}
}

func TestRunPerfectPrediction(t *testing.T) {
	out := simOut(t, "-bench", "compress", "-org", "tailored", "-perfect-prediction")
	if !strings.Contains(out, "mispredict  0.00%") {
		t.Errorf("perfect prediction not reflected:\n%s", out)
	}
}

func TestRunWithCheck(t *testing.T) {
	out := simOut(t, "-bench", "compress", "-org", "compressed", "-check")
	if !strings.Contains(out, "simcheck") || !strings.Contains(out, "clean") {
		t.Errorf("-check report missing:\n%s", out)
	}
}

func TestRunUnknownOrg(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-org", "nonesuch"}, &sb); err == nil {
		t.Error("accepted unknown organization")
	}
}

func TestRunStreamChecked(t *testing.T) {
	out := simOut(t, "-bench", "compress", "-org", "compressed",
		"-stream", "-check")
	if !strings.Contains(out, "streamed") || !strings.Contains(out, "Mops/s") {
		t.Errorf("stream report missing:\n%s", out)
	}
	if !strings.Contains(out, "oracle identical") {
		t.Errorf("stream -check report missing:\n%s", out)
	}
}

func TestRunStreamOpsBound(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bench", "compress", "-org", "base",
		"-stream", "-ops", "50000"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "streamed") {
		t.Errorf("stream report missing:\n%s", sb.String())
	}
}

func TestRunStreamFlagMisuse(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "compress", "-org", "base", "-ops", "1000"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("accepted %v without -stream", args)
		}
	}
}
