package compress_test

import (
	"errors"
	"testing"

	"repro/internal/bitio"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sched"
)

// batchSchemes are the Huffman schemes exposing the batch decode face.
var batchSchemes = []string{"byte", "stream", "stream_1", "full"}

// batchFixture compiles the "compress" benchmark and returns one
// scheme's batch decoder with its image geometry and program.
func batchFixture(t *testing.T, scheme string) (compress.BatchDecoder, compress.SymbolDecoder, []byte, []int, []int, *sched.Program) {
	t.Helper()
	c, err := core.CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c.Encoder(scheme)
	if err != nil {
		t.Fatal(err)
	}
	bd, ok := enc.(compress.BatchDecoder)
	if !ok {
		t.Fatalf("%s encoder does not expose the batch decode face", scheme)
	}
	sd, ok := enc.(compress.SymbolDecoder)
	if !ok {
		t.Fatalf("%s encoder does not expose the symbol decode face", scheme)
	}
	im, err := c.Image(scheme)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]int, len(im.Blocks))
	counts := make([]int, len(im.Blocks))
	for i := range im.Blocks {
		addrs[i] = im.Blocks[i].Addr
		counts[i] = im.Blocks[i].Ops
	}
	return bd, sd, im.Data, addrs, counts, c.Prog
}

// expectedSymbols recomputes a block's symbol stream from its source
// operations — the encode-side truth the batch decode must reproduce.
func expectedSymbols(t *testing.T, bd compress.BatchDecoder, scheme string, ops []isa.Op) []uint64 {
	t.Helper()
	var syms []uint64
	switch scheme {
	case "full":
		for i := range ops {
			syms = append(syms, ops[i].Encode())
		}
	case "byte":
		for _, by := range isa.PackOps(ops) {
			syms = append(syms, uint64(by))
		}
	default: // stream configurations
		var cfg compress.StreamConfig
		found := false
		for _, c := range compress.StreamConfigs {
			if c.Name == scheme {
				cfg, found = c, true
			}
		}
		if !found {
			t.Fatalf("unknown stream config %s", scheme)
		}
		for i := range ops {
			for _, seg := range cfg.Segments() {
				syms = append(syms, ops[i].SliceBits(seg[0], seg[1]))
			}
		}
	}
	if len(syms) != bd.BatchSymbols(len(ops)) {
		t.Fatalf("%s: expected %d symbols for %d ops, BatchSymbols says %d",
			scheme, len(syms), len(ops), bd.BatchSymbols(len(ops)))
	}
	return syms
}

// TestBatchDecodeRunEquivalence proves the batch face against both
// truths on a real image: symbol-for-symbol against the encode-side
// symbol streams, and count-for-count, bit-for-bit against the
// sequential per-block fast face.
func TestBatchDecodeRunEquivalence(t *testing.T) {
	for _, scheme := range batchSchemes {
		t.Run(scheme, func(t *testing.T) {
			bd, sd, data, addrs, counts, prog := batchFixture(t, scheme)
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
				wantSyms += int64(n)
				wantBits += int64(r.Offset() - addrs[i]*8)
			}
			total := 0
			for _, n := range counts {
				total += bd.BatchSymbols(n)
			}
			// Batch face, collecting symbols.
			out := make([]uint64, total)
			syms, bits, err := bd.DecodeRun(data, addrs, counts, out)
			if err != nil {
				t.Fatalf("DecodeRun: %v", err)
			}
			if syms != wantSyms || bits != wantBits {
				t.Fatalf("DecodeRun = (%d syms, %d bits), sequential (%d, %d)",
					syms, bits, wantSyms, wantBits)
			}
			// Symbol content against the encode-side truth.
			off := 0
			for i, b := range prog.Blocks {
				want := expectedSymbols(t, bd, scheme, b.Ops)
				for j, w := range want {
					if out[off+j] != w {
						t.Fatalf("block %d symbol %d = %d, want %d", i, j, out[off+j], w)
					}
				}
				off += len(want)
			}
			if off != total {
				t.Fatalf("consumed %d of %d expected symbols", off, total)
			}
			// Discard mode must report identical counts.
			syms, bits, err = bd.DecodeRun(data, addrs, counts, nil)
			if err != nil || syms != wantSyms || bits != wantBits {
				t.Fatalf("discard DecodeRun = (%d, %d, %v), want (%d, %d, nil)",
					syms, bits, err, wantSyms, wantBits)
			}
			// A short output buffer is a typed error, not a panic.
			if _, _, err := bd.DecodeRun(data, addrs, counts, out[:total-1]); !errors.Is(err, compress.ErrShortBatchOutput) {
				t.Fatalf("short buffer error = %v, want ErrShortBatchOutput", err)
			}
		})
	}
}

// TestBatchDecodeRunTruncated: cutting the image's tail must produce
// the exact terminal the sequential face produces — the failing block
// is the last one, so group Init order cannot mask the terminal.
func TestBatchDecodeRunTruncated(t *testing.T) {
	for _, scheme := range batchSchemes {
		t.Run(scheme, func(t *testing.T) {
			bd, sd, data, addrs, counts, _ := batchFixture(t, scheme)
			cut := data[:len(data)-1]
			// Sequential truth over the truncated image.
			r := bitio.NewReader(cut)
			wantSyms := int64(0)
			var wantErr error
			for i := range addrs {
				if err := r.SeekBit(addrs[i] * 8); err != nil {
					wantErr = err
					break
				}
				n, err := sd.DecodeBlockSymbols(r, counts[i])
				wantSyms += int64(n)
				if err != nil {
					wantErr = err
					break
				}
			}
			if wantErr == nil {
				t.Skip("truncation fell on a block boundary; nothing to compare")
			}
			syms, _, err := bd.DecodeRun(cut, addrs, counts, nil)
			if err == nil {
				t.Fatal("DecodeRun decoded a truncated image cleanly")
			}
			if err.Error() != wantErr.Error() {
				t.Fatalf("terminal error:\nbatch:      %v\nsequential: %v", err, wantErr)
			}
			// Both faces count the failing block's partial symbols.
			if syms != wantSyms {
				t.Fatalf("terminal symbol count %d, sequential %d", syms, wantSyms)
			}
		})
	}
}

// TestBatchDecodeRunZeroAlloc is the dynamic half of the
// //tepic:hotpath contract on the kernel's DecodeBlocks engines: zero
// allocations per whole-image batch decode on both the discard and the
// collect paths.
func TestBatchDecodeRunZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	for _, scheme := range []string{"stream", "full"} {
		bd, _, data, addrs, counts, _ := batchFixture(t, scheme)
		total := 0
		for _, n := range counts {
			total += bd.BatchSymbols(n)
		}
		out := make([]uint64, total)
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := bd.DecodeRun(data, addrs, counts, out); err != nil {
				t.Fatal(err)
			}
			if _, _, err := bd.DecodeRun(data, addrs, counts, nil); err != nil {
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
	bd, _, data, _, _, _ := batchFixture(t, "full")
	syms, bits, err := bd.DecodeRun(data, nil, nil, nil)
	if syms != 0 || bits != 0 || err != nil {
		t.Fatalf("empty batch = (%d, %d, %v), want (0, 0, nil)", syms, bits, err)
	}
	syms, bits, err = bd.DecodeRun(data, []int{0}, []int{0}, nil)
	if syms != 0 || bits != 0 || err != nil {
		t.Fatalf("zero-op block = (%d, %d, %v), want (0, 0, nil)", syms, bits, err)
	}
}
