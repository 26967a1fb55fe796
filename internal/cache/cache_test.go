package cache

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/emu"
	"repro/internal/image"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/tailor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTable1Matrix asserts every cell of the paper's Table 1.
func TestTable1Matrix(t *testing.T) {
	const n = 4
	cases := []struct {
		org      Org
		correct  bool
		hit      bool
		bufHit   bool
		want     int
		describe string
	}{
		// Base.
		{OrgBase, true, true, false, 1, "base correct/hit"},
		{OrgBase, true, false, false, 1 + (n - 1), "base correct/miss"},
		{OrgBase, false, true, false, 2, "base incorrect/hit"},
		{OrgBase, false, false, false, 8 + (n - 1), "base incorrect/miss"},
		// Tailored.
		{OrgTailored, true, true, false, 1, "tailored correct/hit"},
		{OrgTailored, true, false, false, 2 + (n - 1), "tailored correct/miss"},
		{OrgTailored, false, true, false, 2, "tailored incorrect/hit"},
		{OrgTailored, false, false, false, 9 + (n - 1), "tailored incorrect/miss"},
		// Compressed, buffer hit: as fast as an uncompressed hit (the
		// restart on a misprediction is not bypassed).
		{OrgCompressed, true, true, true, 1, "compressed correct/hit/bufhit"},
		{OrgCompressed, true, false, true, 1, "compressed correct/miss/bufhit"},
		{OrgCompressed, false, true, true, 2, "compressed incorrect/hit/bufhit"},
		{OrgCompressed, false, false, true, 2, "compressed incorrect/miss/bufhit"},
		// Compressed, buffer miss; mispredictions pay the added decoder
		// stage (see the timing.go doc comment for the two deliberate
		// deviations from the published matrix).
		{OrgCompressed, true, true, false, 1 + (n - 1), "compressed correct/hit/bufmiss"},
		{OrgCompressed, true, false, false, 3 + (n - 1), "compressed correct/miss/bufmiss"},
		{OrgCompressed, false, true, false, 3 + (n - 1), "compressed incorrect/hit/bufmiss"},
		{OrgCompressed, false, false, false, 10 + (n - 1), "compressed incorrect/miss/bufmiss"},
	}
	for _, c := range cases {
		if got := StartupCycles(c.org, c.correct, c.hit, c.bufHit, n); got != c.want {
			t.Errorf("%s: %d cycles, want %d", c.describe, got, c.want)
		}
	}
	// Base/Tailored ignore the buffer flag entirely.
	if StartupCycles(OrgBase, true, true, true, 1) != 1 {
		t.Error("base must ignore buffer hit flag")
	}
	// n clamps to 1.
	if StartupCycles(OrgBase, true, false, false, 0) != 1 {
		t.Error("n=0 should clamp to 1")
	}
}

func TestLineCacheLRU(t *testing.T) {
	c, err := NewLineCache(1, 2, 32) // one set, 2 ways
	if err != nil {
		t.Fatal(err)
	}
	if c.Probe(1) {
		t.Error("cold probe hit")
	}
	c.Fill(1)
	c.Fill(2)
	if !c.Probe(1) || !c.Probe(2) {
		t.Error("filled lines missing")
	}
	// 1 probed then 2: LRU is 1 after probing 2? Order: probe(1) -> 1 MRU;
	// probe(2) -> 2 MRU, 1 LRU. Fill 3 evicts 1.
	c.Fill(3)
	if c.Probe(1) {
		t.Error("LRU line survived eviction")
	}
	if !c.Probe(2) || !c.Probe(3) {
		t.Error("MRU lines evicted")
	}
}

func TestLineCacheGeometry(t *testing.T) {
	if _, err := NewLineCache(0, 2, 32); err == nil {
		t.Error("accepted 0 sets")
	}
	c, _ := NewLineCache(256, 2, 32)
	if c.CapacityBytes() != 16*1024 {
		t.Errorf("capacity = %d, want 16KB", c.CapacityBytes())
	}
	base, _ := NewLineCache(256, 2, 40)
	if base.CapacityBytes() != 20*1024 {
		t.Errorf("base capacity = %d, want 20KB", base.CapacityBytes())
	}
	if c.LineOf(63) != 1 || c.LineOf(64) != 2 {
		t.Error("LineOf arithmetic")
	}
}

func TestLineCacheFlush(t *testing.T) {
	c, _ := NewLineCache(4, 2, 32)
	c.Fill(5)
	c.Flush()
	if c.Probe(5) {
		t.Error("line survived flush")
	}
}

func TestL0Buffer(t *testing.T) {
	b := NewL0Buffer(32, 64)
	if b.Lookup(1) {
		t.Error("cold lookup hit")
	}
	b.Insert(1, 10)
	b.Insert(2, 10)
	b.Insert(3, 10)
	if !b.Lookup(1) || !b.Lookup(2) || !b.Lookup(3) {
		t.Error("inserted blocks missing")
	}
	if b.UsedOps() != 30 {
		t.Errorf("used = %d, want 30", b.UsedOps())
	}
	// Inserting 10 more evicts the LRU (block 1, just refreshed order:
	// lookups made order 3,2,1 -> MRU 3? Lookup order above was 1,2,3 so
	// MRU is 3, LRU is 1).
	b.Insert(4, 10)
	if b.Lookup(1) {
		t.Error("LRU block survived")
	}
	if !b.Lookup(4) {
		t.Error("new block missing")
	}
}

func TestL0BufferOversized(t *testing.T) {
	b := NewL0Buffer(32, 64)
	b.Insert(9, 40) // bigger than the whole buffer
	if b.Lookup(9) {
		t.Error("oversized block cached")
	}
	if b.UsedOps() != 0 {
		t.Error("oversized insert consumed space")
	}
}

func TestL0BufferReinsertRefreshes(t *testing.T) {
	b := NewL0Buffer(20, 64)
	b.Insert(1, 10)
	b.Insert(2, 10)
	b.Insert(1, 10) // refresh, no growth
	if b.UsedOps() != 20 {
		t.Errorf("used = %d, want 20", b.UsedOps())
	}
	b.Insert(3, 10) // evicts LRU = 2
	if b.Lookup(2) {
		t.Error("refreshed block was evicted instead of LRU")
	}
	if !b.Lookup(1) {
		t.Error("refreshed block missing")
	}
}

// pipeline compiles a benchmark and builds images for all organizations.
func pipeline(t testing.TB, name string) (*sched.Program, map[Org]*image.Image) {
	t.Helper()
	p, err := workload.GenerateBenchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regalloc.Allocate(p); err != nil {
		t.Fatal(err)
	}
	sp, err := sched.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	ims := map[Org]*image.Image{}
	baseIm, err := image.Build(sp, compress.NewBase())
	if err != nil {
		t.Fatal(err)
	}
	ims[OrgBase] = baseIm
	fe, err := compress.NewFullHuffman(sp)
	if err != nil {
		t.Fatal(err)
	}
	if ims[OrgCompressed], err = image.Build(sp, fe); err != nil {
		t.Fatal(err)
	}
	te, err := tailor.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	if ims[OrgTailored], err = image.Build(sp, te); err != nil {
		t.Fatal(err)
	}
	return sp, ims
}

func runOrg(t testing.TB, org Org, sp *sched.Program, im *image.Image, tr *trace.Trace) Result {
	t.Helper()
	sim, err := NewSim(org, DefaultConfig(org), im, sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustRun replays a trace, failing the test on a validation error.
func mustRun(t testing.TB, sim *Sim, tr *trace.Trace) Result {
	t.Helper()
	res, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimBasicInvariants(t *testing.T) {
	sp, ims := pipeline(t, "compress")
	prof := workload.MustProfile("compress")
	tr, err := emu.StochasticTrace(sp, prof.Seed, 50000, prof.Phases)
	if err != nil {
		t.Fatal(err)
	}
	ideal := float64(tr.Ops) / float64(tr.MOPs) // one cycle per MOP
	for _, org := range []Org{OrgBase, OrgTailored, OrgCompressed} {
		res := runOrg(t, org, sp, ims[org], tr)
		if res.Cycles < res.MOPs {
			t.Errorf("%v: cycles %d below MOP floor %d", org, res.Cycles, res.MOPs)
		}
		if res.IPC() <= 0 || res.IPC() > ideal {
			t.Errorf("%v: IPC %.3f outside (0, ideal=%.3f]", org, res.IPC(), ideal)
		}
		if res.BlockFetches != int64(tr.Len()) {
			t.Errorf("%v: %d fetches for %d events", org, res.BlockFetches, tr.Len())
		}
		if org == OrgCompressed && res.BufferHits == 0 {
			t.Error("compressed: L0 buffer never hit on a loopy trace")
		}
		if org != OrgCompressed && res.BufferHits != 0 {
			t.Errorf("%v: buffer hits reported without a buffer", org)
		}
	}
}

// The tiny compress benchmark fits every cache: differences must come
// from mispredictions only, so Tailored ~ Base > Compressed is expected
// per the paper's argument.
func TestSimSmallFootprintShape(t *testing.T) {
	sp, ims := pipeline(t, "compress")
	prof := workload.MustProfile("compress")
	tr, err := emu.StochasticTrace(sp, prof.Seed, 100000, prof.Phases)
	if err != nil {
		t.Fatal(err)
	}
	base := runOrg(t, OrgBase, sp, ims[OrgBase], tr)
	tl := runOrg(t, OrgTailored, sp, ims[OrgTailored], tr)
	if base.MissRate() > 0.02 {
		t.Errorf("compress should fit the base cache; miss rate %.3f", base.MissRate())
	}
	// Identical traces, identical predictors: same mispredict counts.
	if base.Mispredicts != tl.Mispredicts {
		t.Errorf("mispredicts differ: base %d vs tailored %d",
			base.Mispredicts, tl.Mispredicts)
	}
}

// A large-footprint benchmark must show the capacity effect: the
// compressed cache holds ~3x more instructions, so its miss rate must be
// far below base's.
func TestSimCapacityEffect(t *testing.T) {
	sp, ims := pipeline(t, "vortex")
	prof := workload.MustProfile("vortex")
	tr, err := emu.StochasticTrace(sp, prof.Seed, 150000, prof.Phases)
	if err != nil {
		t.Fatal(err)
	}
	base := runOrg(t, OrgBase, sp, ims[OrgBase], tr)
	comp := runOrg(t, OrgCompressed, sp, ims[OrgCompressed], tr)
	tl := runOrg(t, OrgTailored, sp, ims[OrgTailored], tr)
	if base.MissRate() < 0.02 {
		t.Skipf("vortex unexpectedly fits the base cache (miss %.4f)", base.MissRate())
	}
	if comp.MissRate() >= base.MissRate() {
		t.Errorf("compressed miss rate %.4f not below base %.4f",
			comp.MissRate(), base.MissRate())
	}
	if tl.MissRate() >= base.MissRate() {
		t.Errorf("tailored miss rate %.4f not below base %.4f",
			tl.MissRate(), base.MissRate())
	}
}

// Figure 14's shape: bus bit flips track the degree of compression.
func TestSimBitFlipsTrackCompression(t *testing.T) {
	sp, ims := pipeline(t, "gcc")
	prof := workload.MustProfile("gcc")
	tr, err := emu.StochasticTrace(sp, prof.Seed, 150000, prof.Phases)
	if err != nil {
		t.Fatal(err)
	}
	base := runOrg(t, OrgBase, sp, ims[OrgBase], tr)
	comp := runOrg(t, OrgCompressed, sp, ims[OrgCompressed], tr)
	tl := runOrg(t, OrgTailored, sp, ims[OrgTailored], tr)
	if comp.BitFlips >= base.BitFlips {
		t.Errorf("compressed flips %d not below base %d", comp.BitFlips, base.BitFlips)
	}
	if tl.BitFlips >= base.BitFlips {
		t.Errorf("tailored flips %d not below base %d", tl.BitFlips, base.BitFlips)
	}
}

func TestSimDeterministic(t *testing.T) {
	sp, ims := pipeline(t, "go")
	prof := workload.MustProfile("go")
	tr, err := emu.StochasticTrace(sp, prof.Seed, 20000, prof.Phases)
	if err != nil {
		t.Fatal(err)
	}
	r1 := runOrg(t, OrgCompressed, sp, ims[OrgCompressed], tr)
	r2 := runOrg(t, OrgCompressed, sp, ims[OrgCompressed], tr)
	if r1 != r2 {
		t.Error("identical simulations diverged")
	}
}

func TestNewSimMismatch(t *testing.T) {
	sp, ims := pipeline(t, "compress")
	spB, _ := pipeline(t, "go")
	if _, err := NewSim(OrgBase, DefaultConfig(OrgBase), ims[OrgBase], spB); err == nil {
		t.Error("NewSim accepted mismatched image/program")
	}
	_ = sp
}

// TestDefaultConfigGeometry pins DESIGN.md §1's cache geometry for every
// registered organization: 256 sets × 2 ways, 40-byte lines (20 KB) for
// caches holding uncompressed 40-bit ops, 32-byte lines (16 KB)
// otherwise. Table-driven over the org registry so a registered
// organization without a sane default geometry fails here.
func TestDefaultConfigGeometry(t *testing.T) {
	wantLine := map[Org]int{
		OrgBase:       40,
		OrgTailored:   32,
		OrgCompressed: 32,
		OrgCodePack:   40,
	}
	for _, org := range Orgs() {
		spec, ok := org.Spec()
		if !ok {
			t.Fatalf("Orgs() returned unregistered %v", org)
		}
		cfg := DefaultConfig(org)
		if cfg.Sets != 256 || cfg.Assoc != 2 {
			t.Errorf("%s: %d sets x %d ways, want 256 x 2", spec.Name, cfg.Sets, cfg.Assoc)
		}
		if cfg.LineBytes != spec.LineBytes {
			t.Errorf("%s: line %dB, want spec's %dB", spec.Name, cfg.LineBytes, spec.LineBytes)
		}
		if want, ok := wantLine[org]; ok && cfg.LineBytes != want {
			t.Errorf("%s: line %dB, want %dB", spec.Name, cfg.LineBytes, want)
		}
		lc, err := NewLineCache(cfg.Sets, cfg.Assoc, cfg.LineBytes)
		if err != nil {
			t.Fatal(err)
		}
		want := 16 * 1024
		if cfg.LineBytes == 40 {
			want = 20 * 1024 // line size must be a 40-bit multiple
		}
		if lc.CapacityBytes() != want {
			t.Errorf("%s capacity %d, want %d", spec.Name, lc.CapacityBytes(), want)
		}
	}
}

// TestRunIdeal pins Figure 13's Ideal bar: one cycle per MOP, so 100
// ops in 40 MOPs is an ideal IPC of 2.5.
func TestRunIdeal(t *testing.T) {
	res := Result{Benchmark: "x", Ops: 100, MOPs: 40}
	if got := res.IdealIPC(); got != 2.5 {
		t.Errorf("ideal IPC of 100 ops in 40 MOPs = %v, want 2.5", got)
	}
}

// TestRunIdealEmptyTrace pins the zero-length edge: the replay of an
// empty trace has no MOPs, and its ideal IPC and every rate must report
// zero (not NaN).
func TestRunIdealEmptyTrace(t *testing.T) {
	sp, ims := pipeline(t, "compress")
	res := runOrg(t, OrgBase, sp, ims[OrgBase], &trace.Trace{Name: "empty"})
	if res.Cycles != 0 || res.Ops != 0 || res.MOPs != 0 {
		t.Errorf("empty replay: %+v", res)
	}
	for name, v := range map[string]float64{
		"IdealIPC": res.IdealIPC(), "IPC": res.IPC(),
		"MissRate": res.MissRate(), "MispredictRate": res.MispredictRate(),
	} {
		if v != 0 {
			t.Errorf("empty replay %s = %v, want 0", name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("empty replay %s = %v; division by zero leaked", name, v)
		}
	}
}

// TestResultRateZeroDivision pins the rate accessors on a zero Result:
// every denominator is zero and every rate must come back 0, never NaN.
func TestResultRateZeroDivision(t *testing.T) {
	var r Result
	if got := r.IPC(); got != 0 || math.IsNaN(got) {
		t.Errorf("zero Result IPC = %v, want 0", got)
	}
	if got := r.MissRate(); got != 0 || math.IsNaN(got) {
		t.Errorf("zero Result MissRate = %v, want 0", got)
	}
	if got := r.MispredictRate(); got != 0 || math.IsNaN(got) {
		t.Errorf("zero Result MispredictRate = %v, want 0", got)
	}
}

func TestOrgString(t *testing.T) {
	if OrgBase.String() != "Base" || OrgTailored.String() != "Tailored" ||
		OrgCompressed.String() != "Compressed" {
		t.Error("org labels")
	}
}

// TestResultMergeAdditivity is the unit additivity law: Merge sums
// every int64 counter and touches nothing else.
func TestResultMergeAdditivity(t *testing.T) {
	a := Result{
		Benchmark: "b", Scheme: "s", Org: "o",
		Cycles: 1, Ops: 2, MOPs: 3,
		BlockFetches: 4, CacheLookups: 5, CacheMisses: 6,
		LinesFetched: 7, BufferHits: 8, Mispredicts: 9,
		BusBeats: 10, BitFlips: 11, BytesFetched: 12,
		ATBHitRate: 0.5,
	}
	b := Result{
		Cycles: 100, Ops: 200, MOPs: 300,
		BlockFetches: 400, CacheLookups: 500, CacheMisses: 600,
		LinesFetched: 700, BufferHits: 800, Mispredicts: 900,
		BusBeats: 1000, BitFlips: 1100, BytesFetched: 1200,
	}
	a.Merge(b)
	want := Result{
		Benchmark: "b", Scheme: "s", Org: "o",
		Cycles: 101, Ops: 202, MOPs: 303,
		BlockFetches: 404, CacheLookups: 505, CacheMisses: 606,
		LinesFetched: 707, BufferHits: 808, Mispredicts: 909,
		BusBeats: 1010, BitFlips: 1111, BytesFetched: 1212,
		ATBHitRate: 0.5,
	}
	if a != want {
		t.Errorf("merged %+v, want %+v", a, want)
	}
}

// chunkListStream replays a fixed chunk list, including zero-event
// chunks — seams the slice/producer streams never emit but RunStream
// must tolerate (a chunk with nothing to replay hands its inbound
// prediction straight through).
type chunkListStream struct {
	name   string
	chunks []*trace.Chunk
	i      int
}

func (s *chunkListStream) Name() string { return s.name }
func (s *chunkListStream) Next() (*trace.Chunk, error) {
	if s.i >= len(s.chunks) {
		return nil, nil
	}
	c := s.chunks[s.i]
	s.i++
	return c, nil
}
func (s *chunkListStream) Recycle(*trace.Chunk) {}
func (s *chunkListStream) Close()               {}

// zeroEventChunks cuts a trace into thirds with empty chunks before,
// between and after them. Ops/MOPs ride the chunks they describe, so
// the totals still match the trace.
func zeroEventChunks(sp *sched.Program, tr *trace.Trace) *chunkListStream {
	third := tr.Len() / 3
	cuts := []*trace.Chunk{
		{First: 0}, // leading empty chunk
		{Events: tr.Events[:third], First: 0},
		{First: int64(third)}, // interior empty chunk
		{Events: tr.Events[third : 2*third], First: int64(third)},
		{First: int64(2 * third)},
		{Events: tr.Events[2*third:], First: int64(2 * third)},
		{First: int64(tr.Len())}, // trailing empty chunk
	}
	for _, i := range []int{1, 3} {
		for _, ev := range cuts[i].Events {
			cuts[i].Ops += int64(sp.Blocks[ev.Block()].NumOps())
			cuts[i].MOPs += int64(sp.Blocks[ev.Block()].NumMOPs())
		}
	}
	cuts[5].Ops = tr.Ops - cuts[1].Ops - cuts[3].Ops
	cuts[5].MOPs = tr.MOPs - cuts[1].MOPs - cuts[3].MOPs
	return &chunkListStream{name: tr.Name, chunks: cuts}
}

// attributedStream pulls a materialized trace through a PullStream
// with per-event Ops/MOPs attribution — the way the emulator's walkers
// attribute work — so every chunk carries its own totals and partial
// results on error paths have meaningful operation counts (SliceStream
// rides the totals on the final chunk only). Events referencing blocks
// outside the program attribute nothing.
func attributedStream(sp *sched.Program, tr *trace.Trace, chunkEvents int) trace.Stream {
	events := tr.Events
	return trace.NewPullStream(tr.Name, chunkEvents, func(c *trace.Chunk) error {
		for len(events) > 0 && len(c.Events) < cap(c.Events) {
			ev := events[0]
			events = events[1:]
			if b := ev.Block(); b >= 0 && b < len(sp.Blocks) {
				c.Ops += int64(sp.Blocks[b].NumOps())
				c.MOPs += int64(sp.Blocks[b].NumMOPs())
			}
			c.Events = append(c.Events, ev)
		}
		return nil
	})
}

// TestRunStreamMatchesRun checks the incremental stream replay is
// bit-identical to the slice replay for every organization and across
// adversarial seam placements: every event its own chunk (the hardest
// warm-state case, where every LRU/L0/predictor transition crosses a
// seam), chunks of two, one-off-from-trace-length chunks, interleaved
// zero-event chunks, and the live producer/consumer stream. Every row
// also checks that the merged per-chunk bus deltas are the bus model's
// cumulative counters.
func TestRunStreamMatchesRun(t *testing.T) {
	sp, ims := pipeline(t, "compress")
	prof := workload.MustProfile("compress")
	long, err := emu.StochasticTrace(sp, prof.Seed, 30000, prof.Phases)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4099
	short, err := emu.StochasticTrace(sp, prof.Seed, n, prof.Phases)
	if err != nil {
		t.Fatal(err)
	}

	type row struct {
		name   string
		org    Org
		tr     *trace.Trace
		stream func() trace.Stream
	}
	var rows []row
	for _, org := range []Org{OrgBase, OrgTailored, OrgCompressed} {
		for _, cs := range []int{1, 7, 997, 4096, 8192, 30000, 30001} {
			rows = append(rows, row{fmt.Sprintf("%v/chunk=%d", org, cs), org, long,
				func() trace.Stream { return trace.NewSliceStream(long, cs) }})
		}
	}
	for _, cs := range []int{1, 2, n - 1, n + 1} {
		rows = append(rows, row{fmt.Sprintf("seam/chunk=%d", cs), OrgCompressed, short,
			func() trace.Stream { return trace.NewSliceStream(short, cs) }})
	}
	rows = append(rows,
		row{"seam/zero-event-chunks", OrgCompressed, short,
			func() trace.Stream { return zeroEventChunks(sp, short) }},
		row{"producer-stream", OrgCompressed, long, func() trace.Stream {
			st, err := emu.StochasticStream(sp, prof.Seed, 30000, prof.Phases, 2048)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}},
	)

	want := map[*trace.Trace]map[Org]Result{long: {}, short: {}}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			w, ok := want[r.tr][r.org]
			if !ok {
				w = runOrg(t, r.org, sp, ims[r.org], r.tr)
				want[r.tr][r.org] = w
			}
			sim, err := NewSim(r.org, DefaultConfig(r.org), ims[r.org], sp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.RunStream(r.stream())
			if err != nil {
				t.Fatal(err)
			}
			if got != w {
				t.Errorf("RunStream %+v != Run %+v", got, w)
			}
			beats, flips, bytes := sim.bus.Counts()
			if got.BusBeats != beats || got.BitFlips != flips || got.BytesFetched != bytes {
				t.Errorf("merged bus deltas (%d, %d, %d) != bus counters (%d, %d, %d)",
					got.BusBeats, got.BitFlips, got.BytesFetched, beats, flips, bytes)
			}
		})
	}
}

// TestStreamStartsNoGoroutine pins that trace production runs on the
// consumer's goroutine: creating a walker stream, draining part of it,
// closing it, and a full RunStream drain never raise the goroutine
// count above where it was.
func TestStreamStartsNoGoroutine(t *testing.T) {
	sp, ims := pipeline(t, "compress")
	prof := workload.MustProfile("compress")
	// Only a rise counts: a goroutine an earlier test left behind may
	// exit while this one runs, and streaming's contract is that it
	// starts none.
	base := runtime.NumGoroutine()
	check := func(stage string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines, want at most %d", stage, n, base)
		}
	}
	st, err := emu.StochasticStreamOps(sp, prof.Seed, 1_000_000, prof.Phases, 256)
	if err != nil {
		t.Fatal(err)
	}
	check("created")
	for i := 0; i < 3; i++ {
		c, err := st.Next()
		if err != nil || c == nil {
			t.Fatalf("Next = (%v, %v)", c, err)
		}
		st.Recycle(c)
	}
	check("partly drained")
	st.Close()
	check("closed")

	st, err = emu.StochasticStreamOps(sp, prof.Seed, 200_000, prof.Phases, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(OrgCompressed, DefaultConfig(OrgCompressed), ims[OrgCompressed], sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunStream(st); err != nil {
		t.Fatal(err)
	}
	check("RunStream drained")
}

// TestRunShardedBusDeltasAuthoritative asserts the bus invariant on its
// own, at a chunk size that is not a divisor of the trace length: the
// per-chunk bus deltas RunStream merges ARE the shared bus model's
// cumulative counters — no end-of-run overwrite needed. (The name
// predates the window schedulers' removal; the invariant is the same.)
func TestRunShardedBusDeltasAuthoritative(t *testing.T) {
	sp, ims := pipeline(t, "compress")
	prof := workload.MustProfile("compress")
	tr, err := emu.StochasticTrace(sp, prof.Seed, 20000, prof.Phases)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(OrgCompressed, DefaultConfig(OrgCompressed), ims[OrgCompressed], sp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunStream(trace.NewSliceStream(tr, 1021))
	if err != nil {
		t.Fatal(err)
	}
	if res.BusBeats == 0 || res.BytesFetched == 0 {
		t.Fatalf("replay moved nothing over the bus: %+v", res)
	}
	beats, flips, bytes := sim.bus.Counts()
	if res.BusBeats != beats || res.BitFlips != flips || res.BytesFetched != bytes {
		t.Errorf("merged bus deltas (%d, %d, %d) != shared bus counters (%d, %d, %d)",
			res.BusBeats, res.BitFlips, res.BytesFetched, beats, flips, bytes)
	}
}

// TestRunStreamErrors pins RunStream's error paths: the typed sentinel
// with the absolute event offset for a corrupt mid-stream chunk, the
// partial counters returned with it, a producer's terminal error, and
// the rejection of Sims that disagree on the block count. Partial
// counters must equal a clean replay of exactly the events that were
// replayed, for every Sim of a fan-out. (A validated chunk cannot fail
// mid-replay; FuzzRunStreamValidated checks that property.)
func TestRunStreamErrors(t *testing.T) {
	sp, ims := pipeline(t, "compress")
	prof := workload.MustProfile("compress")
	tr, err := emu.StochasticTrace(sp, prof.Seed, 9000, prof.Phases)
	if err != nil {
		t.Fatal(err)
	}
	const cs = 512
	perr := errors.New("producer boom")

	mkSim := func(t *testing.T, org Org) *Sim {
		sim, err := NewSim(org, DefaultConfig(org), ims[org], sp)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	corrupt := func(at int) *trace.Trace {
		bad := *tr
		bad.Events = append([]trace.Event(nil), tr.Events...)
		ev := bad.Events[at]
		bad.Events[at] = trace.MakeEvent(len(sp.Blocks)+3, ev.Taken(), ev.Next())
		return &bad
	}
	// prefix is the clean replay of the first k events through org, as
	// the partial result of an error after them must read (ATBHitRate is
	// only derived on success).
	prefix := func(t *testing.T, org Org, k int) Result {
		pre := &trace.Trace{Name: tr.Name, Events: tr.Events[:k]}
		want, err := mkSim(t, org).RunStream(attributedStream(sp, pre, cs))
		if err != nil {
			t.Fatal(err)
		}
		want.ATBHitRate = 0
		return want
	}
	// failingStream fills 100 identical events, in chunks of 16 and a
	// final partial chunk of 4, all delivered before the fill fails.
	ev := trace.MakeEvent(0, false, 0)
	failingStream := func() trace.Stream {
		filled := 0
		return trace.NewPullStream("t", 16, func(c *trace.Chunk) error {
			for filled < 100 && len(c.Events) < cap(c.Events) {
				c.Events = append(c.Events, ev)
				c.Ops++
				c.MOPs++
				filled++
			}
			if filled == 100 {
				return perr
			}
			return nil
		})
	}
	// clean is the replay of failingStream's 100 events through org.
	clean := func(t *testing.T, org Org) Result {
		tr := &trace.Trace{Name: "t", Ops: 100, MOPs: 100}
		for i := 0; i < 100; i++ {
			tr.Events = append(tr.Events, ev)
		}
		want, err := mkSim(t, org).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		want.ATBHitRate = 0
		return want
	}
	one := func(got Result, err error) ([]Result, error) { return []Result{got}, err }

	rows := []struct {
		name string
		run  func(t *testing.T) (got, want []Result, err error)
		// The error must wrap sentinel and name errText.
		sentinel error
		errText  string
	}{
		{"malformed-chunk", func(t *testing.T) ([]Result, []Result, error) {
			got, err := one(mkSim(t, OrgBase).RunStream(trace.NewSliceStream(corrupt(3333), cs)))
			return got, got, err
		}, ErrMalformedTrace, "event 3333"},
		{"malformed-chunk-partial-counters", func(t *testing.T) ([]Result, []Result, error) {
			got, err := one(mkSim(t, OrgCompressed).RunStream(attributedStream(sp, corrupt(6001), cs)))
			// Events 0..6001 live in chunk 11, so the committed chunks
			// 0..10 are events 0..5631.
			return got, []Result{prefix(t, OrgCompressed, (6001/cs)*cs)}, err
		}, ErrMalformedTrace, "event 6001"},
		{"fan-out-malformed-chunk", func(t *testing.T) ([]Result, []Result, error) {
			got, err := RunStream(attributedStream(sp, corrupt(6001), cs),
				mkSim(t, OrgBase), mkSim(t, OrgCompressed))
			k := (6001 / cs) * cs
			return got, []Result{prefix(t, OrgBase, k), prefix(t, OrgCompressed, k)}, err
		}, ErrMalformedTrace, "event 6001"},
		{"run-malformed", func(t *testing.T) ([]Result, []Result, error) {
			// Event 8500 lies in Run's second default-size chunk, so the
			// first chunk replays before the error; Run still returns
			// Result{} and names the offset within the whole trace.
			got, err := one(mkSim(t, OrgCompressed).Run(corrupt(8500)))
			return got, []Result{{}}, err
		}, ErrMalformedTrace, "event 8500"},
		{"producer-error", func(t *testing.T) ([]Result, []Result, error) {
			got, err := one(mkSim(t, OrgBase).RunStream(failingStream()))
			return got, []Result{clean(t, OrgBase)}, err
		}, perr, "producer boom"},
		{"fan-out-producer-error", func(t *testing.T) ([]Result, []Result, error) {
			got, err := RunStream(failingStream(), mkSim(t, OrgBase), mkSim(t, OrgCompressed))
			return got, []Result{clean(t, OrgBase), clean(t, OrgCompressed)}, err
		}, perr, "producer boom"},
		{"fan-out-block-count-mismatch", func(t *testing.T) ([]Result, []Result, error) {
			otherSp, otherIms := pipeline(t, "li")
			other, err := NewSim(OrgBase, DefaultConfig(OrgBase), otherIms[OrgBase], otherSp)
			if err != nil {
				t.Fatal(err)
			}
			st := &probeStream{Stream: trace.NewSliceStream(tr, cs)}
			got, err := RunStream(st, mkSim(t, OrgBase), other)
			if st.nexts != 0 || !st.closed {
				t.Errorf("rejected fan-out called Next %d times, closed=%v; want 0 calls and closed",
					st.nexts, st.closed)
			}
			return got, nil, err
		}, ErrBadConfig, "simulator 1 replays"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			got, want, err := r.run(t)
			if !errors.Is(err, r.sentinel) || !strings.Contains(err.Error(), r.errText) {
				t.Fatalf("err = %v, want one wrapping %q and naming %q", err, r.sentinel, r.errText)
			}
			if len(got) != len(want) {
				t.Fatalf("%d results, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("sim %d: partial counters %+v, want the clean replay of the replayed events %+v",
						i, got[i], want[i])
				}
				if want[i].Ops > 0 && got[i].BusBeats == 0 {
					t.Errorf("sim %d: partial result %+v dropped the replayed prefix's bus traffic", i, got[i])
				}
			}
		})
	}
}

// probeStream counts a stream's Next calls and records its Close.
type probeStream struct {
	trace.Stream
	nexts  int
	closed bool
}

func (s *probeStream) Next() (*trace.Chunk, error) {
	s.nexts++
	return s.Stream.Next()
}

func (s *probeStream) Close() {
	s.closed = true
	s.Stream.Close()
}
