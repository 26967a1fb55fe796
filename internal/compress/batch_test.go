package compress_test

import (
	"testing"

	"repro/internal/bitio"
	"repro/internal/compress"
	"repro/internal/core"
)

// batchSchemes are the Huffman schemes exposing the batch decode face.
var batchSchemes = []string{"byte", "stream", "stream_1", "full"}

// batchFixture compiles the "compress" benchmark and returns one
// scheme's batch and symbol decode faces with its image geometry: the
// per-block address and operation-count queues both tiers consume.
func batchFixture(tb testing.TB, scheme string) (compress.BatchDecoder, compress.SymbolDecoder, []byte, []int, []int) {
	tb.Helper()
	c, err := core.CompileBenchmark("compress")
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := c.Encoder(scheme)
	if err != nil {
		tb.Fatal(err)
	}
	bd, ok := enc.(compress.BatchDecoder)
	if !ok {
		tb.Fatalf("%s encoder does not expose the batch decode face", scheme)
	}
	sd, ok := enc.(compress.SymbolDecoder)
	if !ok {
		tb.Fatalf("%s encoder does not expose the symbol decode face", scheme)
	}
	im, err := c.Image(scheme)
	if err != nil {
		tb.Fatal(err)
	}
	addrs := make([]int, len(im.Blocks))
	counts := make([]int, len(im.Blocks))
	for i := range im.Blocks {
		addrs[i] = im.Blocks[i].Addr
		counts[i] = im.Blocks[i].Ops
	}
	return bd, sd, im.Data, addrs, counts
}

// TestBatchDecodeRunEquivalence proves the batch face count-for-count,
// bit-for-bit against the sequential per-block fast face on a real
// image. The symbols themselves are pinned below the face: DecodeBlocks
// runs LaneDecoder.Decode, which huffman's lane equivalence tests and
// FuzzLaneDecodeEquivalence check symbol by symbol.
func TestBatchDecodeRunEquivalence(t *testing.T) {
	for _, scheme := range batchSchemes {
		t.Run(scheme, func(t *testing.T) {
			bd, sd, data, addrs, counts := batchFixture(t, scheme)
			// Sequential oracle: per-block symbol scan through a Reader.
			r := bitio.NewReader(data)
			wantSyms, wantBits := int64(0), int64(0)
			for i := range addrs {
				if err := r.SeekBit(addrs[i] * 8); err != nil {
					t.Fatal(err)
				}
				n, err := sd.DecodeBlockSymbols(r, counts[i])
				if err != nil {
					t.Fatalf("sequential block %d: %v", i, err)
				}
				if n != bd.BatchSymbols(counts[i]) {
					t.Fatalf("block %d: %d symbols for %d ops, BatchSymbols says %d",
						i, n, counts[i], bd.BatchSymbols(counts[i]))
				}
				wantSyms += int64(n)
				wantBits += int64(r.Offset() - addrs[i]*8)
			}
			syms, bits, err := bd.DecodeRun(data, addrs, counts)
			if err != nil || syms != wantSyms || bits != wantBits {
				t.Fatalf("DecodeRun = (%d, %d, %v), sequential (%d, %d, nil)",
					syms, bits, err, wantSyms, wantBits)
			}
		})
	}
}

// TestBatchDecodeRunTruncated: a cut image must produce the exact
// terminal and totals the sequential face produces, summed in block
// order through the failing block. Cutting the last byte fails the last
// block; cutting the image in half fails a middle block and leaves the
// addresses of the blocks after it past the end, some of them in the
// failing block's group of four.
func TestBatchDecodeRunTruncated(t *testing.T) {
	for _, scheme := range batchSchemes {
		t.Run(scheme, func(t *testing.T) {
			bd, sd, data, addrs, counts := batchFixture(t, scheme)
			for _, cut := range [][]byte{data[:len(data)-1], data[:len(data)/2]} {
				// Sequential truth over the cut image.
				r := bitio.NewReader(cut)
				wantSyms, wantBits := int64(0), int64(0)
				var wantErr error
				for i := range addrs {
					if err := r.SeekBit(addrs[i] * 8); err != nil {
						wantErr = err
						break
					}
					n, err := sd.DecodeBlockSymbols(r, counts[i])
					wantSyms += int64(n)
					wantBits += int64(r.Offset() - addrs[i]*8)
					if err != nil {
						wantErr = err
						break
					}
				}
				if wantErr == nil {
					t.Fatalf("cut to %d bytes: the sequential face decoded every block", len(cut))
				}
				syms, bits, err := bd.DecodeRun(cut, addrs, counts)
				if err == nil {
					t.Fatalf("cut to %d bytes: DecodeRun decoded the image cleanly", len(cut))
				}
				if err.Error() != wantErr.Error() {
					t.Fatalf("cut to %d bytes: terminal error:\nbatch:      %v\nsequential: %v", len(cut), err, wantErr)
				}
				// Both faces count the failing block's partial symbols
				// and consumed bits.
				if syms != wantSyms || bits != wantBits {
					t.Fatalf("cut to %d bytes: totals (%d, %d), sequential (%d, %d)", len(cut), syms, bits, wantSyms, wantBits)
				}
			}
		})
	}
}

// TestBatchDecodeRunZeroAlloc is the dynamic half of the
// //tepic:hotpath contract on the kernel's DecodeBlocks: zero
// allocations per whole-image batch decode on every batch scheme, so
// its stack chunk buffer never escapes whatever the schedule length.
func TestBatchDecodeRunZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	for _, scheme := range batchSchemes {
		bd, _, data, addrs, counts := batchFixture(t, scheme)
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := bd.DecodeRun(data, addrs, counts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s DecodeRun: %.1f allocs per image, want 0", scheme, allocs)
		}
	}
}

// TestBatchDecodeRunEmpty pins the degenerate shapes.
func TestBatchDecodeRunEmpty(t *testing.T) {
	bd, _, data, _, _ := batchFixture(t, "full")
	syms, bits, err := bd.DecodeRun(data, nil, nil)
	if syms != 0 || bits != 0 || err != nil {
		t.Fatalf("empty batch = (%d, %d, %v), want (0, 0, nil)", syms, bits, err)
	}
	syms, bits, err = bd.DecodeRun(data, []int{0}, []int{0})
	if syms != 0 || bits != 0 || err != nil {
		t.Fatalf("zero-op block = (%d, %d, %v), want (0, 0, nil)", syms, bits, err)
	}
}
