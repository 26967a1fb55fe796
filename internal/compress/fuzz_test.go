package compress_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitio"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/isa"
)

// fuzzSchemes covers every encoder family behind the common interface.
var fuzzSchemes = []string{"base", "byte", "stream", "stream_1", "full", "tailored"}

var pool struct {
	once sync.Once
	ops  []isa.Op
	encs map[string]compress.Encoder
	err  error
}

// loadPool compiles the "compress" benchmark once and exposes its
// operation pool and trained encoders. Fuzzed blocks draw operations
// from the pool, so every symbol is present in the Huffman tables and
// the tailored dictionary — any sequence of them is a legal block.
func loadPool(t testing.TB) ([]isa.Op, map[string]compress.Encoder) {
	pool.once.Do(func() {
		c, err := core.CompileBenchmark("compress")
		if err != nil {
			pool.err = err
			return
		}
		for _, b := range c.Prog.Blocks {
			pool.ops = append(pool.ops, b.Ops...)
		}
		pool.encs = map[string]compress.Encoder{}
		for _, scheme := range fuzzSchemes {
			enc, err := c.Encoder(scheme)
			if err != nil {
				pool.err = err
				return
			}
			pool.encs[scheme] = enc
		}
	})
	if pool.err != nil {
		t.Fatal(pool.err)
	}
	return pool.ops, pool.encs
}

// blockFromBytes maps arbitrary fuzz bytes to a block of pool operations.
func blockFromBytes(ops []isa.Op, data []byte) []isa.Op {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0])%64 + 1
	block := make([]isa.Op, 0, n)
	h := 2166136261 // FNV-style mix of the payload selects pool indices
	for i := 0; i < n; i++ {
		h = h*16777619 ^ int(data[(i+1)%len(data)])
		j := h % len(ops)
		if j < 0 {
			j = -j
		}
		block = append(block, ops[j])
	}
	return block
}

// checkRoundTrip encodes the block under every scheme and decodes it
// back, asserting bit-exact operations and op words and that BlockBits
// agrees with the bits actually written.
func checkRoundTrip(t *testing.T, encs map[string]compress.Encoder, block []isa.Op) {
	t.Helper()
	for scheme, enc := range encs {
		var w bitio.Writer
		before := w.BitLen()
		if err := enc.EncodeBlock(&w, block); err != nil {
			t.Fatalf("%s: encode: %v", scheme, err)
		}
		if got, want := w.BitLen()-before, enc.BlockBits(block); got != want {
			t.Errorf("%s: wrote %d bits, BlockBits predicts %d", scheme, got, want)
		}
		r := bitio.NewReader(w.Bytes())
		dec, err := enc.DecodeBlock(r, len(block))
		if err != nil {
			t.Fatalf("%s: decode: %v", scheme, err)
		}
		if len(dec) != len(block) {
			t.Fatalf("%s: decoded %d ops, want %d", scheme, len(dec), len(block))
		}
		for i := range dec {
			if dec[i] != block[i] {
				t.Fatalf("%s: op %d: %s != %s", scheme, i, dec[i].String(), block[i].String())
			}
		}
		words, err := enc.DecodeWords(bitio.NewReader(w.Bytes()), len(block), nil)
		if err != nil {
			t.Fatalf("%s: decode words: %v", scheme, err)
		}
		for i := range words {
			if want := block[i].Encode(); words[i] != want {
				t.Fatalf("%s: word %d: %#x != %#x", scheme, i, words[i], want)
			}
		}
	}
}

// TestEncodeDecodeArbitraryBlocks sweeps deterministic pseudo-random
// blocks of every size class through all encoders.
func TestEncodeDecodeArbitraryBlocks(t *testing.T) {
	ops, encs := loadPool(t)
	seed := []byte{0}
	for n := 1; n <= 48; n += 7 {
		seed[0] = byte(n)
		block := make([]isa.Op, 0, n)
		for i := 0; i < n; i++ {
			block = append(block, ops[(i*2654435761+n*97)%len(ops)])
		}
		checkRoundTrip(t, encs, block)
	}
	// Empty blocks must also round-trip (some CFG blocks are fallthrough
	// only).
	checkRoundTrip(t, encs, nil)
}

// FuzzEncodeDecodeRoundTrip fuzzes encode→decode over arbitrary block
// compositions for every scheme.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{8, 0, 1, 2, 3})
	f.Add([]byte{63, 0xff, 0x80, 0x41, 0x07, 0xc3})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, encs := loadPool(t)
		checkRoundTrip(t, encs, blockFromBytes(ops, data))
	})
}

// blockDecodeSchemes are the Huffman schemes whose DecodeBlock must
// match ReferenceDecodeBlock: byte, every stream configuration and full.
func blockDecodeSchemes() []string {
	names := []string{"byte"}
	for _, cfg := range compress.StreamConfigs {
		names = append(names, cfg.Name)
	}
	return append(names, "full")
}

// corruptBlock is one block of a scheme's image with flips bits
// inverted at positions drawn from a seed fixed by block and flip
// count.
func corruptBlock(data []byte, blk, flips int) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	rng := rand.New(rand.NewSource(int64(blk*4 + flips)))
	for i := 0; i < flips; i++ {
		bit := rng.Intn(len(out) * 8)
		out[bit/8] ^= 0x80 >> uint(bit%8)
	}
	return out
}

// FuzzBlockDecodeEquivalence decodes arbitrary bytes as an n-op block
// under every Huffman scheme of one compiled benchmark, through
// DecodeBlock, through DecodeWords and through the bit-by-bit
// ReferenceDecodeBlock. All three must agree on the operations (as
// words for DecodeWords), the error text and the reader offset, and
// DecodeWords must leave the prefix of the dst it was handed untouched.
// The seeds are the benchmark's own blocks with 1 to 3 bits flipped:
// for each scheme image, the first few whose oracle decode ends
// cleanly, on a codeword error, and on an invalid operation — the case
// where the oracle stops before the block's last codeword.
func FuzzBlockDecodeEquivalence(f *testing.F) {
	c, err := core.CompileBenchmark("compress")
	if err != nil {
		f.Fatal(err)
	}
	names := blockDecodeSchemes()
	encs := make([]compress.Encoder, len(names))
	for i, name := range names {
		if encs[i], err = c.Encoder(name); err != nil {
			f.Fatal(err)
		}
	}
	const perOutcome = 4
	for i, name := range names {
		im, err := c.Image(name)
		if err != nil {
			f.Fatal(err)
		}
		ref := encs[i].(compress.ReferenceDecoder)
		var clean, codeword, operation int
		for bi, b := range im.Blocks {
			for flips := 1; flips <= 3; flips++ {
				data := corruptBlock(im.Data[b.Addr:b.Addr+b.Bytes], bi, flips)
				_, rerr := ref.ReferenceDecodeBlock(bitio.NewReader(data), b.Ops)
				count := &clean
				if errors.Is(rerr, isa.ErrBadOp) {
					count = &operation
				} else if rerr != nil {
					count = &codeword
				}
				if *count < perOutcome {
					*count++
					f.Add(data, uint16(b.Ops))
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, nops uint16) {
		n := int(nops) % 1024
		for i, enc := range encs {
			fr, rr := bitio.NewReader(data), bitio.NewReader(data)
			fops, ferr := enc.DecodeBlock(fr, n)
			rops, rerr := encs[i].(compress.ReferenceDecoder).ReferenceDecodeBlock(rr, n)
			if (ferr == nil) != (rerr == nil) || (ferr != nil && ferr.Error() != rerr.Error()) {
				t.Fatalf("%s: DecodeBlock error %v, reference %v", names[i], ferr, rerr)
			}
			if fr.Offset() != rr.Offset() {
				t.Fatalf("%s: DecodeBlock stopped at bit %d, reference %d (error %v)",
					names[i], fr.Offset(), rr.Offset(), ferr)
			}
			if len(fops) != len(rops) {
				t.Fatalf("%s: DecodeBlock %d ops, reference %d", names[i], len(fops), len(rops))
			}
			for j := range fops {
				if fops[j] != rops[j] {
					t.Fatalf("%s: op %d = %s, reference %s", names[i], j, fops[j].String(), rops[j].String())
				}
			}
			checkDecodeWords(t, names[i], enc, data, n, rops, rerr, rr.Offset())
		}
	})
}

// wordsPrefix is the dst content DecodeWords is handed in the
// equivalence checks; it must come back untouched.
var wordsPrefix = []uint64{0xdead, 0xbeef, 0xcafe}

// checkDecodeWords decodes data as an n-op block through DecodeWords,
// into a dst holding wordsPrefix with spare capacity after it (the
// Huffman schemes decode their symbols there), and requires the
// reference decode's outcome: its operations' words after the prefix,
// its error text and its reader offset.
func checkDecodeWords(t *testing.T, name string, enc compress.Encoder, data []byte, n int,
	rops []isa.Op, rerr error, roff int) {
	t.Helper()
	dst := append(make([]uint64, 0, len(wordsPrefix)+64), wordsPrefix...)
	wr := bitio.NewReader(data)
	words, werr := enc.DecodeWords(wr, n, dst)
	if (werr == nil) != (rerr == nil) || (werr != nil && werr.Error() != rerr.Error()) {
		t.Fatalf("%s: DecodeWords error %v, reference %v", name, werr, rerr)
	}
	if wr.Offset() != roff {
		t.Fatalf("%s: DecodeWords stopped at bit %d, reference %d (error %v)", name, wr.Offset(), roff, werr)
	}
	for j, w := range wordsPrefix {
		if dst[j] != w || words[j] != w {
			t.Fatalf("%s: DecodeWords changed dst[%d] from %#x to %#x (returned %#x)", name, j, w, dst[j], words[j])
		}
	}
	words = words[len(wordsPrefix):]
	if len(words) != len(rops) {
		t.Fatalf("%s: DecodeWords %d words, reference %d ops", name, len(words), len(rops))
	}
	for j := range words {
		if want := rops[j].Encode(); words[j] != want {
			t.Fatalf("%s: word %d = %#x, reference op %s encodes to %#x", name, j, words[j], rops[j].String(), want)
		}
	}
}
