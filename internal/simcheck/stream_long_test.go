package simcheck_test

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/scheme"
	"repro/internal/simcheck"
	"repro/internal/trace"
)

// longHorizonOps is the default dynamic-operation horizon for the
// streaming equality run: the acceptance criterion's 100M+ ops (about
// ten million events — ~80 MB if materialized, a few hundred KB
// streamed). The replays finish in seconds; STREAM_LONG_OPS
// overrides the horizon either way.
const longHorizonOps = 100_000_000

// TestStreamLongHorizon is the long-horizon proof: a fixed-seed
// 100M-op trace streamed straight out of the stochastic walker (never
// materialized), replayed through Sim.RunStream at two chunk sizes and
// through the oracle's streaming face — all three bit-identical — with
// peak heap bounded by the chunk working set rather than the trace
// length.
func TestStreamLongHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("streams millions of ops; too slow for -short")
	}
	ops := int64(longHorizonOps)
	if s := os.Getenv("STREAM_LONG_OPS"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v <= 0 {
			t.Fatalf("STREAM_LONG_OPS=%q: %v", s, err)
		}
		ops = v
	}

	c := compile(t, "compress")
	p, ok := scheme.PairingByName("Compressed")
	if !ok {
		t.Fatal("Compressed pairing not registered")
	}
	im, err := c.Image(p.CacheScheme)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cache.DefaultConfig(p.Org)
	seed, phases := c.Profile.Seed, c.Profile.Phases

	// Each replay gets its own stream: same seed, same walker, same
	// event sequence, cut at the given chunk size.
	stream := func(chunkEvents int) trace.Stream {
		st, err := emu.StochasticStreamOps(c.Prog, seed, ops, phases, chunkEvents)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	before := emu.MemSnapshot()

	sim, err := cache.NewOrgSim(p.Org, cfg, im, nil, c.Prog)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := sim.RunStream(stream(0))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Ops < ops {
		t.Fatalf("stream delivered %d ops, want >= %d", seq.Ops, ops)
	}

	// A prime chunk size puts every seam somewhere else.
	sim2, err := cache.NewOrgSim(p.Org, cfg, im, nil, c.Prog)
	if err != nil {
		t.Fatal(err)
	}
	rechunked, err := sim2.RunStream(stream(997))
	if err != nil {
		t.Fatal(err)
	}
	if rechunked != seq {
		t.Errorf("997-event chunks differ from default chunks:\n  997     %+v\n  default %+v", rechunked, seq)
	}

	oracle, err := simcheck.ExpectedStream(p.Org, cfg, im, nil, c.Prog, stream(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range simcheck.Diff(rechunked, oracle) {
		t.Errorf("oracle disagrees on %s: simulator %d, oracle %d", m.Field, m.Got, m.Want)
	}

	after := emu.MemSnapshot()
	// The trace never materializes: at 8 B/event a materialized run of
	// this horizon would hold ~80 MB of events, while the streaming
	// working set is a handful of 8192-event chunks. HeapSys
	// is monotonic within the process, so its growth over the replays
	// bounds their peak footprint. The bound sits well below one
	// materialized copy.
	const maxGrowth = 32 << 20
	if growth := int64(after.HeapSys) - int64(before.HeapSys); growth > maxGrowth {
		t.Errorf("heap grew %d MB during streaming replays (HeapSys %d -> %d); peak memory not bounded",
			growth>>20, before.HeapSys, after.HeapSys)
	}
	t.Logf("streamed %d ops (%d events): %d cycles, heap sys %d MB",
		seq.Ops, seq.BlockFetches, seq.Cycles, after.HeapSys>>20)
}
