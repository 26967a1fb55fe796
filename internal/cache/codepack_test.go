package cache

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/emu"
	"repro/internal/image"
	"repro/internal/workload"
)

func TestCodePackTiming(t *testing.T) {
	const n = 3
	// Hit path identical to Base; miss path carries the decompressor.
	if got := StartupCycles(OrgCodePack, true, true, false, n); got != 1 {
		t.Errorf("codepack correct/hit = %d, want 1", got)
	}
	if got := StartupCycles(OrgCodePack, false, true, false, n); got != 2 {
		t.Errorf("codepack incorrect/hit = %d, want 2", got)
	}
	if got := StartupCycles(OrgCodePack, true, false, false, n); got != 2+(n-1) {
		t.Errorf("codepack correct/miss = %d, want %d", got, 2+(n-1))
	}
	if got := StartupCycles(OrgCodePack, false, false, false, n); got != 9+(n-1) {
		t.Errorf("codepack incorrect/miss = %d, want %d", got, 9+(n-1))
	}
	if OrgCodePack.String() != "CodePack" {
		t.Error("label")
	}
}

func TestNewSimRejectsCodePack(t *testing.T) {
	sp, ims := pipeline(t, "compress")
	if _, err := NewSim(OrgCodePack, DefaultConfig(OrgCodePack), ims[OrgBase], sp); err == nil {
		t.Error("NewSim accepted OrgCodePack without a ROM image")
	}
}

// TestCodePackProfile reproduces the §6 criticism: the CodePack-style
// organization saves ROM and bus traffic (compressed fetches) but gains
// no cache capacity, so on a capacity-bound benchmark it cannot match the
// paper's Compressed organization — and it pays the miss-time
// decompressor relative to Base.
func TestCodePackProfile(t *testing.T) {
	sp, ims := pipeline(t, "vortex")
	prof := workload.MustProfile("vortex")
	tr, err := emu.StochasticTrace(sp, prof.Seed, 150000, prof.Phases)
	if err != nil {
		t.Fatal(err)
	}
	byteEnc, err := compress.NewByteHuffman(sp)
	if err != nil {
		t.Fatal(err)
	}
	byteIm, err := image.Build(sp, byteEnc)
	if err != nil {
		t.Fatal(err)
	}
	cpSim, err := NewOrgSim(OrgCodePack, DefaultConfig(OrgCodePack), ims[OrgBase], byteIm, sp)
	if err != nil {
		t.Fatal(err)
	}
	cp := mustRun(t, cpSim, tr)
	base := runOrg(t, OrgBase, sp, ims[OrgBase], tr)
	comp := runOrg(t, OrgCompressed, sp, ims[OrgCompressed], tr)

	// Same cache contents as Base: identical miss rate.
	if cp.MissRate() != base.MissRate() {
		t.Errorf("codepack miss rate %.4f != base %.4f (uncompressed cache)",
			cp.MissRate(), base.MissRate())
	}
	// Slower than Base (miss-time decompression), no faster than the
	// paper's Compressed on a capacity-bound benchmark.
	if cp.IPC() >= base.IPC() {
		t.Errorf("codepack IPC %.3f not below base %.3f", cp.IPC(), base.IPC())
	}
	if cp.IPC() >= comp.IPC() {
		t.Errorf("codepack IPC %.3f not below hit-path-compressed %.3f",
			cp.IPC(), comp.IPC())
	}
	// But the bus carries compressed lines: fewer beats and bytes than
	// Base for the identical miss sequence. (Bit flips are not asserted:
	// line-granular repair streams high-entropy compressed lines whose
	// flip density can exceed the structured uncompressed encoding's.)
	if cp.BusBeats >= base.BusBeats {
		t.Errorf("codepack beats %d not below base %d", cp.BusBeats, base.BusBeats)
	}
	if cp.BytesFetched >= base.BytesFetched {
		t.Errorf("codepack bytes %d not below base %d", cp.BytesFetched, base.BytesFetched)
	}
	// Regression (bus-granularity fix): ROM miss repair is line-granular,
	// so volume counters must agree with the fetched line count exactly.
	if cp.BytesFetched != cp.LinesFetched*40 {
		t.Errorf("codepack bytes %d != %d lines x 40B lines", cp.BytesFetched, cp.LinesFetched)
	}
}

func TestCodePackMismatchedROM(t *testing.T) {
	sp, ims := pipeline(t, "compress")
	spB, imsB := pipeline(t, "go")
	if _, err := NewOrgSim(OrgCodePack, DefaultConfig(OrgCodePack), ims[OrgBase], imsB[OrgCompressed], sp); err == nil {
		t.Error("accepted ROM image from a different program")
	}
	_ = spB
}

func TestPredictorConfig(t *testing.T) {
	sp, ims := pipeline(t, "go")
	prof := workload.MustProfile("go")
	tr, err := emu.StochasticTrace(sp, prof.Seed, 100000, prof.Phases)
	if err != nil {
		t.Fatal(err)
	}
	rates := map[PredictorKind]float64{}
	for _, pred := range []PredictorKind{PredictorBimodal, PredictorGShare, PredictorPAs} {
		cfg := DefaultConfig(OrgBase)
		cfg.Predictor = pred
		sim, err := NewSim(OrgBase, cfg, ims[OrgBase], sp)
		if err != nil {
			t.Fatal(err)
		}
		rates[pred] = mustRun(t, sim, tr).MispredictRate()
	}
	// go's branches carry local patterns the stochastic walk generates as
	// biased coins; all predictors should land in a sane band and the
	// two-level ones must not be catastrophically worse.
	for pred, r := range rates {
		if r <= 0 || r > 0.5 {
			t.Errorf("%s mispredict rate %.3f implausible", pred, r)
		}
	}
	cfg := DefaultConfig(OrgBase)
	cfg.Predictor = PredictorKind("nonesuch")
	if _, err := NewSim(OrgBase, cfg, ims[OrgBase], sp); err == nil {
		t.Error("accepted unknown predictor")
	}
}

func TestPerfectPredictionZeroMispredicts(t *testing.T) {
	sp, ims := pipeline(t, "go")
	prof := workload.MustProfile("go")
	tr, err := emu.StochasticTrace(sp, prof.Seed, 50000, prof.Phases)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(OrgBase)
	cfg.PerfectPrediction = true
	sim, err := NewSim(OrgBase, cfg, ims[OrgBase], sp)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, sim, tr)
	if r.Mispredicts != 0 {
		t.Errorf("perfect prediction recorded %d mispredicts", r.Mispredicts)
	}
	real, err := NewSim(OrgBase, DefaultConfig(OrgBase), ims[OrgBase], sp)
	if err != nil {
		t.Fatal(err)
	}
	if rr := mustRun(t, real, tr); rr.IPC() > r.IPC() {
		t.Errorf("real predictor IPC %.3f beats perfect %.3f", rr.IPC(), r.IPC())
	}
}
