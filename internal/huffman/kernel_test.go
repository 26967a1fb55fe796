package huffman

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// laneFixture is one schedule's worth of test material: the tables, the
// kernel over them, and a set of independent encoded streams whose
// symbols cycle through the schedule (the stream-scheme shape: segment
// codewords interleaved per operation in one bit stream).
type laneFixture struct {
	tabs []*Table
	kern *LaneDecoder
	data [][]byte   // per-stream encoded bytes
	syms [][]uint64 // per-stream expected symbols
}

// buildLaneFixture encodes nstreams independent streams of count
// symbols each, every stream cycling the ntabs-table schedule.
func buildLaneFixture(t *testing.T, rng *rand.Rand, ntabs, nstreams, count int) *laneFixture {
	t.Helper()
	return buildSizedLaneFixture(t, rng, make([]int, ntabs), nstreams, count)
}

// buildSizedLaneFixture is buildLaneFixture with a chosen alphabet size
// per schedule table; a size of 0 picks 2–201 symbols at random.
func buildSizedLaneFixture(t *testing.T, rng *rand.Rand, sizes []int, nstreams, count int) *laneFixture {
	t.Helper()
	fx := &laneFixture{}
	var scheds []*FastDecoder
	ntabs := len(sizes)
	for ti, n := range sizes {
		if n == 0 {
			n = 2 + rng.Intn(200)
		}
		freq := randFreq(rng, n, ti%2 == 0)
		tab, err := Build(freq)
		if err != nil {
			t.Fatal(err)
		}
		fx.tabs = append(fx.tabs, tab)
		scheds = append(scheds, tab.NewFastDecoder())
	}
	fx.kern = NewLaneDecoder(scheds...)
	for s := 0; s < nstreams; s++ {
		var w bitio.Writer
		var syms []uint64
		for i := 0; i < count; i++ {
			tab := fx.tabs[i%ntabs]
			all := tab.Symbols()
			sym := all[rng.Intn(len(all))]
			if err := tab.Encode(&w, sym); err != nil {
				t.Fatal(err)
			}
			syms = append(syms, sym)
		}
		fx.data = append(fx.data, w.Bytes())
		fx.syms = append(fx.syms, syms)
	}
	return fx
}

// laneOracle decodes count symbols of one stream per-symbol through the
// schedule's FastDecoders on a Reader (the proven-equivalent-to-
// reference path), returning symbols, final offset, and terminal error.
func laneOracle(k *LaneDecoder, data []byte, start, count int) ([]uint64, int, error) {
	r := bitio.NewReader(data)
	if err := r.SeekBit(start); err != nil {
		return nil, 0, err
	}
	var out []uint64
	for i := 0; i < count; i++ {
		sym, err := k.sched[i%len(k.sched)].Decode(r)
		if err != nil {
			return out, r.Offset(), err
		}
		out = append(out, sym)
	}
	return out, r.Offset(), nil
}

// requireLaneAgreement runs the kernel over up to MaxLanes streams at
// once and requires every lane to match its per-symbol oracle in
// symbols, terminal offset, error text, and EOF classification.
func requireLaneAgreement(t *testing.T, k *LaneDecoder, streams [][]byte, count int) {
	t.Helper()
	var lanes [MaxLanes]Lane
	n := len(streams)
	if n > MaxLanes {
		t.Fatalf("fixture has %d streams, max %d", n, MaxLanes)
	}
	outs := make([][]uint64, n)
	for i := 0; i < n; i++ {
		outs[i] = make([]uint64, count)
		if err := lanes[i].Init(streams[i], 0, outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(lanes[:n])
	for i := 0; i < n; i++ {
		want, woff, werr := laneOracle(k, streams[i], 0, count)
		got := outs[i][:lanes[i].Decoded()]
		if len(got) != len(want) {
			t.Fatalf("lane %d decoded %d symbols, oracle %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("lane %d symbol %d = %d, oracle %d", i, j, got[j], want[j])
			}
		}
		if lanes[i].Offset() != woff {
			t.Fatalf("lane %d terminal offset %d, oracle %d", i, lanes[i].Offset(), woff)
		}
		gerr := lanes[i].Err()
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("lane %d error %v, oracle %v", i, gerr, werr)
		}
		if gerr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("lane %d error text:\nkernel: %v\noracle: %v", i, gerr, werr)
			}
			if errors.Is(gerr, io.ErrUnexpectedEOF) != errors.Is(werr, io.ErrUnexpectedEOF) {
				t.Fatalf("lane %d EOF classification differs: %v vs %v", i, gerr, werr)
			}
		}
	}
}

// TestLaneDecodeEquivalence: lanes vs the per-symbol FastDecoder path
// across schedule widths, lane counts, and every truncation point of
// the first stream.
func TestLaneDecodeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 20; trial++ {
		ntabs := 1 + rng.Intn(4)
		nstreams := 1 + rng.Intn(MaxLanes)
		count := 1 + rng.Intn(600)
		fx := buildLaneFixture(t, rng, ntabs, nstreams, count)
		requireLaneAgreement(t, fx.kern, fx.data, count)
		// Over-asking forces every lane into a terminal error.
		requireLaneAgreement(t, fx.kern, fx.data, count+1)
		// Truncation points of stream 0 exercise both error terminals at
		// every refill phase.
		for cut := 0; cut < len(fx.data[0]) && cut < 24; cut++ {
			requireLaneAgreement(t, fx.kern, [][]byte{fx.data[0][:cut]}, count)
		}
	}
}

// TestLaneDecodeUnalignedStarts: lanes initialized mid-byte (the
// stream-scheme case: segment streams begin wherever the previous op
// ended) must agree with the oracle from the same bit offset.
func TestLaneDecodeUnalignedStarts(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	fx := buildLaneFixture(t, rng, 2, 1, 400)
	data := fx.data[0]
	// Decode k symbols with the oracle to find mid-stream (mid-byte)
	// resume points, then lane-decode the remainder from each.
	for _, skip := range []int{1, 2, 3, 5, 17} {
		want, off, err := laneOracle(fx.kern, data, 0, skip)
		if err != nil || len(want) != skip {
			t.Fatalf("oracle skip %d: %v", skip, err)
		}
		rest := 400 - skip
		out := make([]uint64, rest)
		var lanes [1]Lane
		if err := lanes[0].Init(data, off, out); err != nil {
			t.Fatal(err)
		}
		// Match the oracle's schedule phase at the resume point.
		lanes[0].ti = skip % fx.kern.Tables()
		fx.kern.Run(lanes[:])
		if lanes[0].Err() != nil {
			t.Fatalf("resume at bit %d: %v", off, lanes[0].Err())
		}
		for j, sym := range out {
			if sym != fx.syms[0][skip+j] {
				t.Fatalf("resume at bit %d symbol %d = %d, want %d", off, j, sym, fx.syms[0][skip+j])
			}
		}
	}
}

// TestLaneRunZeroAlloc is the dynamic half of the //tepic:hotpath
// contract on LaneDecoder.Run: zero allocations per four-lane batch in
// steady state (lanes held by the caller, Init between batches). The
// companion canary below proves this harness would catch a break.
func TestLaneRunZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	rng := rand.New(rand.NewSource(94))
	fx := buildLaneFixture(t, rng, 2, MaxLanes, 512)
	var lanes [MaxLanes]Lane
	outs := make([][]uint64, MaxLanes)
	for i := range outs {
		outs[i] = make([]uint64, 512)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range lanes {
			if err := lanes[i].Init(fx.data[i], 0, outs[i]); err != nil {
				t.Fatal(err)
			}
		}
		fx.kern.Run(lanes[:])
		for i := range lanes {
			if lanes[i].Err() != nil {
				t.Fatal(lanes[i].Err())
			}
		}
	})
	if allocs != 0 {
		t.Errorf("LaneDecoder.Run: %.1f allocs per 4-lane batch, want 0", allocs)
	}
}

// brokenLaneRun mimics a hot-loop regression: the same shape as a
// kernel call but with a formatting allocation inside the loop — the
// deliberate break the zero-alloc harness must detect.
func brokenLaneRun(k *LaneDecoder, lanes []Lane) string {
	k.Run(lanes)
	return fmt.Sprintf("decoded %d", lanes[0].Decoded())
}

// TestLaneRunZeroAllocCanary proves the harness has teeth: a variant of
// the hot loop with a deliberate allocation must be flagged by the same
// AllocsPerRun instrument that guards the real kernel. If this canary
// ever reports zero, the dynamic half of the contract is blind and
// TestLaneRunZeroAlloc's passing means nothing.
func TestLaneRunZeroAllocCanary(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	rng := rand.New(rand.NewSource(95))
	fx := buildLaneFixture(t, rng, 1, 1, 64)
	var lanes [1]Lane
	out := make([]uint64, 64)
	sink := ""
	allocs := testing.AllocsPerRun(20, func() {
		if err := lanes[0].Init(fx.data[0], 0, out); err != nil {
			t.Fatal(err)
		}
		sink = brokenLaneRun(fx.kern, lanes[:])
	})
	if allocs == 0 {
		t.Error("canary: deliberately allocating lane loop reported zero allocs — the harness is blind")
	}
	_ = sink
}

// TestLaneDecoderValidation pins the constructor contract.
func TestLaneDecoderValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("empty schedule", func() { NewLaneDecoder() })
	expectPanic("nil table", func() { NewLaneDecoder(nil) })
	// A real 57-bit FastDecoder is unbuildable in memory (its overflow
	// sub-table would span 2^47 entries), so a stub carries the length.
	expectPanic("57-bit codes", func() { NewLaneDecoder(&FastDecoder{maxLen: 57}) })
	tab, err := Build(map[uint64]int64{1: 1, 2: 2, 3: 3})
	if err != nil {
		t.Fatal(err)
	}
	k := NewLaneDecoder(tab.NewFastDecoder(), tab.NewFastDecoder())
	if k.Tables() != 2 {
		t.Errorf("Tables() = %d, want 2", k.Tables())
	}
	if k.TableEntries() != 2*tab.NewFastDecoder().TableEntries() {
		t.Errorf("TableEntries() = %d", k.TableEntries())
	}
	expectPanic("too many lanes", func() {
		var lanes [MaxLanes + 1]Lane
		k.Run(lanes[:])
	})
}

// encodeLaneBlocks encodes nblocks byte-aligned blocks into one image:
// block i holds (counts[i]*mul + add) / div symbols cycling the fixture's
// schedule from phase 0, the DecodeBlocks block shape. It returns the
// image, the block queues, every symbol in block order, and the total
// code bits.
func encodeLaneBlocks(t *testing.T, rng *rand.Rand, fx *laneFixture, nblocks, mul, add, div int) (data []byte, addrs, counts []int, syms []uint64, bits int64) {
	t.Helper()
	var w bitio.Writer
	for b := 0; b < nblocks; b++ {
		w.AlignByte()
		ops := rng.Intn(40)
		addrs = append(addrs, w.BitLen()/8)
		counts = append(counts, ops)
		for i := 0; i < (ops*mul+add)/div; i++ {
			tab := fx.tabs[i%len(fx.tabs)]
			all := tab.Symbols()
			sym := all[rng.Intn(len(all))]
			if err := tab.Encode(&w, sym); err != nil {
				t.Fatal(err)
			}
			syms = append(syms, sym)
			bits += int64(tab.EncodedBits(sym))
		}
	}
	return w.Bytes(), addrs, counts, syms, bits
}

// TestDecodeBlocksDiscardCollect covers each schedule shape, and with
// them each of decodeBlocksFast's three bodies. DecodeBlocks must report
// the encoded totals, and the fast engine's sink must be the xor of the
// encoded symbols — the symbol-level check on the batch engine, whose
// symbols are otherwise never observed.
func TestDecodeBlocksDiscardCollect(t *testing.T) {
	cases := []struct {
		name          string
		sizes         []int
		mul, add, div int
		fused         bool
	}{
		{"single-table", []int{0}, 1, 0, 1, false},
		{"single-table-bytes", []int{0}, 5, 7, 8, false},
		{"fused-2", []int{9, 40}, 2, 0, 1, true},
		{"fused-4", []int{12, 30, 7, 50}, 4, 0, 1, true},
		{"unfused-2", []int{150, 120}, 2, 0, 1, false},
		{"not-op-aligned", []int{9, 40}, 3, 1, 2, true},
	}
	rng := rand.New(rand.NewSource(100))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := buildSizedLaneFixture(t, rng, tc.sizes, 0, 0)
			if got := fx.kern.fused != nil; got != tc.fused {
				t.Fatalf("schedule fused = %v, want %v", got, tc.fused)
			}
			data, addrs, counts, want, wantBits := encodeLaneBlocks(t, rng, fx, 37, tc.mul, tc.add, tc.div)
			var xor uint64
			for _, s := range want {
				xor ^= s
			}
			wantSyms := int64(len(want))
			k := fx.kern

			syms, bits, err := k.DecodeBlocks(data, addrs, counts, tc.mul, tc.add, tc.div)
			if err != nil || syms != wantSyms || bits != wantBits {
				t.Fatalf("DecodeBlocks = (%d, %d, %v), want (%d, %d, nil)", syms, bits, err, wantSyms, wantBits)
			}
			// The fast engine directly: it must decode the intact image
			// without falling back, folding exactly the encoded symbols.
			syms, bits, sink, ok := k.decodeBlocksFast(data, addrs, counts, tc.mul, tc.add, tc.div)
			if !ok || syms != wantSyms || bits != wantBits {
				t.Fatalf("fast = (%d, %d, ok %v), want (%d, %d, ok)", syms, bits, ok, wantSyms, wantBits)
			}
			if sink != xor {
				t.Fatalf("fast sink %#x, want xor of symbols %#x", sink, xor)
			}
			// The grouped engine over the same blocks: same totals.
			syms, bits, err = k.decodeBlocksSlow(data, addrs, counts, tc.mul, tc.add, tc.div)
			if err != nil || syms != wantSyms || bits != wantBits {
				t.Fatalf("slow = (%d, %d, %v), want (%d, %d, nil)", syms, bits, err, wantSyms, wantBits)
			}
		})
	}
}
