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

// requireLaneAgreement decodes each stream through the kernel's
// single-stream face and requires it to match its per-symbol oracle in
// symbols, terminal offset, error text, and EOF classification.
func requireLaneAgreement(t *testing.T, k *LaneDecoder, streams [][]byte, count int) {
	t.Helper()
	for i, stream := range streams {
		out := make([]uint64, count)
		n, off, gerr := k.Decode(stream, 0, out)
		want, woff, werr := laneOracle(k, stream, 0, count)
		if n != len(want) {
			t.Fatalf("stream %d decoded %d symbols, oracle %d", i, n, len(want))
		}
		for j := range want {
			if out[j] != want[j] {
				t.Fatalf("stream %d symbol %d = %d, oracle %d", i, j, out[j], want[j])
			}
		}
		if off != woff {
			t.Fatalf("stream %d terminal offset %d, oracle %d", i, off, woff)
		}
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("stream %d error %v, oracle %v", i, gerr, werr)
		}
		if gerr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("stream %d error text:\nkernel: %v\noracle: %v", i, gerr, werr)
			}
			if errors.Is(gerr, io.ErrUnexpectedEOF) != errors.Is(werr, io.ErrUnexpectedEOF) {
				t.Fatalf("stream %d EOF classification differs: %v vs %v", i, gerr, werr)
			}
		}
	}
}

// TestLaneDecodeEquivalence: the single-stream face vs the per-symbol
// FastDecoder path across schedule widths, stream counts, and every
// truncation point of the first stream.
func TestLaneDecodeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 20; trial++ {
		ntabs := 1 + rng.Intn(4)
		nstreams := 1 + rng.Intn(4)
		count := 1 + rng.Intn(600)
		fx := buildLaneFixture(t, rng, ntabs, nstreams, count)
		requireLaneAgreement(t, fx.kern, fx.data, count)
		// Over-asking forces every stream into a terminal error.
		requireLaneAgreement(t, fx.kern, fx.data, count+1)
		// Truncation points of stream 0 exercise both error terminals at
		// every refill phase.
		for cut := 0; cut < len(fx.data[0]) && cut < 24; cut++ {
			requireLaneAgreement(t, fx.kern, [][]byte{fx.data[0][:cut]}, count)
		}
	}
	// A start outside the stream decodes nothing and reports it.
	fx := buildLaneFixture(t, rng, 1, 1, 8)
	end := 8 * len(fx.data[0])
	for _, bit := range []int{-1, end + 1} {
		n, off, err := fx.kern.Decode(fx.data[0], bit, make([]uint64, 8))
		if n != 0 || off != bit || !errors.Is(err, bitio.ErrExhausted) {
			t.Errorf("Decode from bit %d = (%d, %d, %v), want (0, %d, ErrExhausted)", bit, n, off, err, bit)
		}
	}
}

// TestLaneDecodeUnalignedStarts: a decode started mid-byte (the
// stream-scheme case: an operation's segment codewords begin wherever
// the previous operation ended) must agree with the oracle from the
// same bit offset. Resume points fall on operation boundaries, where
// the schedule is back at phase 0.
func TestLaneDecodeUnalignedStarts(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, ntabs := range []int{1, 2} {
		fx := buildLaneFixture(t, rng, ntabs, 1, 400)
		data := fx.data[0]
		unaligned := 0
		// Decode skip symbols with the oracle to find mid-stream resume
		// points, then decode the remainder from each.
		for _, ops := range []int{1, 2, 3, 5, 17} {
			skip := ops * ntabs
			want, off, err := laneOracle(fx.kern, data, 0, skip)
			if err != nil || len(want) != skip {
				t.Fatalf("oracle skip %d: %v", skip, err)
			}
			if off%8 != 0 {
				unaligned++
			}
			out := make([]uint64, 400-skip)
			n, end, err := fx.kern.Decode(data, off, out)
			if err != nil || n != len(out) {
				t.Fatalf("resume at bit %d: %d symbols, %v", off, n, err)
			}
			if _, wend, _ := laneOracle(fx.kern, data, 0, 400); end != wend {
				t.Fatalf("resume at bit %d: end %d, oracle %d", off, end, wend)
			}
			for j, sym := range out {
				if sym != fx.syms[0][skip+j] {
					t.Fatalf("resume at bit %d symbol %d = %d, want %d", off, j, sym, fx.syms[0][skip+j])
				}
			}
		}
		if unaligned == 0 {
			t.Fatalf("%d tables: every resume point fell on a byte boundary", ntabs)
		}
	}
}

// TestLaneDecodeZeroAlloc is the dynamic half of the //tepic:hotpath
// contract on LaneDecoder.Decode: zero allocations per decoded stream
// in steady state (output held by the caller). The companion canary
// below proves this harness would catch a break.
func TestLaneDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	rng := rand.New(rand.NewSource(94))
	fx := buildLaneFixture(t, rng, 2, 4, 512)
	out := make([]uint64, 512)
	allocs := testing.AllocsPerRun(100, func() {
		for _, stream := range fx.data {
			if _, _, err := fx.kern.Decode(stream, 0, out); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("LaneDecoder.Decode: %.1f allocs per 4 streams, want 0", allocs)
	}
}

// brokenLaneDecode mimics a hot-loop regression: the same shape as a
// kernel call but with a formatting allocation inside the loop — the
// deliberate break the zero-alloc harness must detect.
func brokenLaneDecode(k *LaneDecoder, data []byte, out []uint64) string {
	n, _, _ := k.Decode(data, 0, out)
	return fmt.Sprintf("decoded %d", n)
}

// TestLaneDecodeZeroAllocCanary proves the harness has teeth: a variant
// of the hot loop with a deliberate allocation must be flagged by the
// same AllocsPerRun instrument that guards the real kernel. If this
// canary ever reports zero, the dynamic half of the contract is blind
// and TestLaneDecodeZeroAlloc's passing means nothing.
func TestLaneDecodeZeroAllocCanary(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	rng := rand.New(rand.NewSource(95))
	fx := buildLaneFixture(t, rng, 1, 1, 64)
	out := make([]uint64, 64)
	sink := ""
	allocs := testing.AllocsPerRun(20, func() {
		sink = brokenLaneDecode(fx.kern, fx.data[0], out)
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
	long := make([]*FastDecoder, blockChunk+1)
	for i := range long {
		long[i] = tab.NewFastDecoder()
	}
	expectPanic("schedule longer than blockChunk", func() { NewLaneDecoder(long...) })
	NewLaneDecoder(long[:blockChunk]...)
	k := NewLaneDecoder(tab.NewFastDecoder(), tab.NewFastDecoder())
	if k.Tables() != 2 {
		t.Errorf("Tables() = %d, want 2", k.Tables())
	}
	if k.TableEntries() != 2*tab.NewFastDecoder().TableEntries() {
		t.Errorf("TableEntries() = %d", k.TableEntries())
	}
}

// encodeLaneBlocks encodes nblocks byte-aligned blocks into one image:
// block i holds (counts[i]*mul + add) / div symbols cycling the fixture's
// schedule from phase 0, the DecodeBlocks block shape, with counts[i]
// drawn from [0, maxOps). It returns the image, the block queues, every
// symbol in block order, and the total code bits.
func encodeLaneBlocks(t *testing.T, rng *rand.Rand, fx *laneFixture, nblocks, maxOps, mul, add, div int) (data []byte, addrs, counts []int, syms []uint64, bits int64) {
	t.Helper()
	var w bitio.Writer
	for b := 0; b < nblocks; b++ {
		w.AlignByte()
		ops := rng.Intn(maxOps)
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

// TestDecodeBlocksDiscardCollect covers each schedule shape: DecodeBlocks
// must report the encoded totals on an intact image, and the per-block
// oracle's totals and terminal on a cut one or past a bad address.
// fused-2 and fused-4 are schedules of small alphabets whose adjacent
// pairs fit a few thousand entries, unfused-2 one of large alphabets.
// The seven-table case runs blocks over several stack-buffer chunks
// with a schedule length that does not divide the buffer, so a chunk
// that broke the schedule phase would decode the wrong codewords.
func TestDecodeBlocksDiscardCollect(t *testing.T) {
	cases := []struct {
		name          string
		sizes         []int
		maxOps        int
		mul, add, div int
	}{
		{"single-table", []int{0}, 40, 1, 0, 1},
		{"single-table-bytes", []int{0}, 40, 5, 7, 8},
		{"fused-2", []int{9, 40}, 40, 2, 0, 1},
		{"fused-4", []int{12, 30, 7, 50}, 40, 4, 0, 1},
		{"unfused-2", []int{150, 120}, 40, 2, 0, 1},
		{"not-op-aligned", []int{9, 40}, 40, 3, 1, 2},
		{"multi-chunk-7", []int{9, 40, 3, 120, 17, 5, 60}, 120, 7, 0, 1},
	}
	rng := rand.New(rand.NewSource(100))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := buildSizedLaneFixture(t, rng, tc.sizes, 0, 0)
			data, addrs, counts, want, wantBits := encodeLaneBlocks(t, rng, fx, 37, tc.maxOps, tc.mul, tc.add, tc.div)
			wantSyms := int64(len(want))
			k := fx.kern

			syms, bits, err := k.DecodeBlocks(data, addrs, counts, tc.mul, tc.add, tc.div)
			if err != nil || syms != wantSyms || bits != wantBits {
				t.Fatalf("DecodeBlocks = (%d, %d, %v), want (%d, %d, nil)", syms, bits, err, wantSyms, wantBits)
			}
			// Half the image: DecodeBlocks must report the per-block
			// oracle's totals through the first failing block (the one
			// the cut truncates) and its terminal, in block order.
			cut := data[:len(data)/2]
			wantSyms, wantBits = 0, 0
			var wantErr error
			for i, a := range addrs {
				got, off, err := laneOracle(k, cut, 8*a, (counts[i]*tc.mul+tc.add)/tc.div)
				wantSyms += int64(len(got))
				wantBits += int64(off - 8*a)
				if err != nil {
					wantErr = err
					break
				}
			}
			syms, bits, err = k.DecodeBlocks(cut, addrs, counts, tc.mul, tc.add, tc.div)
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() || syms != wantSyms || bits != wantBits {
				t.Fatalf("half image = (%d, %d, %v), want (%d, %d, %v)", syms, bits, err, wantSyms, wantBits, wantErr)
			}
			// An address past the end at block 2: the blocks before it
			// still count, and the seek error ends the scan even when the
			// bad block has no symbols to decode.
			bad := append([]int(nil), addrs...)
			bad[2] = len(data) + 1
			wantSyms, wantBits = 0, 0
			for i := 0; i < 2; i++ {
				got, off, _ := laneOracle(k, data, 8*addrs[i], (counts[i]*tc.mul+tc.add)/tc.div)
				wantSyms += int64(len(got))
				wantBits += int64(off - 8*addrs[i])
			}
			wantErr = fmt.Errorf("%w: seek to bit %d outside stream of %d bits", bitio.ErrExhausted, 8*bad[2], 8*len(data))
			for _, n := range []int{counts[2], 0} {
				cnt := append([]int(nil), counts...)
				cnt[2] = n
				syms, bits, err = k.DecodeBlocks(data, bad, cnt, tc.mul, tc.add, tc.div)
				if err == nil || err.Error() != wantErr.Error() || syms != wantSyms || bits != wantBits {
					t.Fatalf("block 2 of %d ops past the end = (%d, %d, %v), want (%d, %d, %v)", n, syms, bits, err, wantSyms, wantBits, wantErr)
				}
			}
		})
	}
}
