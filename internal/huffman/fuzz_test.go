package huffman

import (
	"errors"
	"io"
	"testing"

	"repro/internal/bitio"
)

// FuzzFastDecodeEquivalence builds a table from fuzz-chosen frequencies
// (optionally length-limited) and decodes a fuzz-chosen bit stream with
// both decoders: the symbol sequences, the consumed-bit offset after
// every symbol, and the terminal error (text and io.ErrUnexpectedEOF
// classification) must be identical. The raw stream makes invalid and
// truncated codewords as reachable as valid ones.
func FuzzFastDecodeEquivalence(f *testing.F) {
	f.Add([]byte{1, 1, 2, 3, 5, 8}, []byte{0xde, 0xad, 0xbe, 0xef}, uint8(0))
	f.Add([]byte{7}, []byte{0xff}, uint8(0))                 // single symbol, invalid bits
	f.Add([]byte{1, 2, 3, 4}, []byte{}, uint8(3))            // limited, empty stream
	f.Add([]byte{9, 9, 9, 1, 1, 1}, []byte{0x5a}, uint8(57)) // slack limit
	f.Fuzz(func(t *testing.T, tblSeed, stream []byte, limit uint8) {
		if len(tblSeed) == 0 || len(tblSeed) > 2048 || len(stream) > 4096 {
			return
		}
		// Widen the alphabet beyond one byte so multi-byte symbols and
		// deep trees are exercised too.
		freq := map[uint64]int64{}
		for i, b := range tblSeed {
			freq[uint64(b)|uint64(i%5)<<8]++
		}
		var tab *Table
		var err error
		if lim := int(limit); lim >= 1 && lim <= MaxCodeLen {
			tab, err = BuildLimited(freq, lim)
		} else {
			tab, err = Build(freq)
		}
		if err != nil {
			return // infeasible limit: not this fuzzer's concern
		}
		fast := tab.NewFastDecoder()
		ref := tab.NewDecoder()
		fr := bitio.NewReader(stream)
		rr := bitio.NewReader(stream)
		for step := 0; ; step++ {
			fsym, ferr := fast.Decode(fr)
			rsym, rerr := ref.Decode(rr)
			if (ferr == nil) != (rerr == nil) {
				t.Fatalf("step %d: fast err %v, reference err %v", step, ferr, rerr)
			}
			if fr.Offset() != rr.Offset() {
				t.Fatalf("step %d: fast consumed %d bits, reference %d",
					step, fr.Offset(), rr.Offset())
			}
			if ferr != nil {
				if ferr.Error() != rerr.Error() {
					t.Fatalf("step %d: error text differs:\nfast:      %v\nreference: %v",
						step, ferr, rerr)
				}
				if errors.Is(ferr, io.ErrUnexpectedEOF) != errors.Is(rerr, io.ErrUnexpectedEOF) {
					t.Fatalf("step %d: EOF classification differs: %v vs %v", step, ferr, rerr)
				}
				break
			}
			if fsym != rsym {
				t.Fatalf("step %d: fast symbol %d, reference %d", step, fsym, rsym)
			}
		}
	})
}

// FuzzLaneDecodeEquivalence is the three-way differential over the
// kernel's single-stream face: a fuzz-chosen table (optionally
// length-limited) and a fuzz-chosen raw bit stream decoded from four
// start offsets (the whole stream, and offset by the seed's low bits)
// against both the per-symbol FastDecoder and the reference Decoder.
// Symbols, terminal offsets, error text, and io.ErrUnexpectedEOF
// classification must all be identical per start. Raw streams make both
// error terminals as reachable as clean decodes, and the spread starts
// decorrelate the refill phases.
func FuzzLaneDecodeEquivalence(f *testing.F) {
	f.Add([]byte{1, 1, 2, 3, 5, 8}, []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x23}, uint8(0))
	f.Add([]byte{7}, []byte{0xff}, uint8(0))
	f.Add([]byte{1, 2, 3, 4}, []byte{}, uint8(3))
	f.Add([]byte{9, 9, 9, 1, 1, 1}, []byte{0x5a, 0xa5, 0x5a}, uint8(57))
	f.Fuzz(func(t *testing.T, tblSeed, stream []byte, limit uint8) {
		if len(tblSeed) == 0 || len(tblSeed) > 2048 || len(stream) > 4096 {
			return
		}
		freq := map[uint64]int64{}
		for i, b := range tblSeed {
			freq[uint64(b)|uint64(i%5)<<8]++
		}
		var tab *Table
		var err error
		if lim := int(limit); lim >= 1 && lim <= MaxCodeLen {
			tab, err = BuildLimited(freq, lim)
		} else {
			tab, err = Build(freq)
		}
		if err != nil {
			return // infeasible limit: not this fuzzer's concern
		}
		fast := tab.NewFastDecoder()
		ref := tab.NewDecoder()
		kern := NewLaneDecoder(fast)
		refSyms, _, _ := referenceDecodeAll(ref, stream)
		count := len(refSyms) + int(limit)%3 // also over-ask to force terminals

		out := make([]uint64, count)
		for i := 0; i < 4; i++ {
			start := (i * int(limit)) % (8*len(stream) + 1)
			n, end, gerr := kern.Decode(stream, start, out)
			// Per-symbol oracle from the same start: FastDecoder and
			// reference in lockstep (their own equivalence is
			// FuzzFastDecodeEquivalence's concern; any divergence here
			// still fails through the fast face).
			fr := bitio.NewReader(stream)
			rr := bitio.NewReader(stream)
			if err := fr.SeekBit(start); err != nil {
				t.Fatal(err)
			}
			if err := rr.SeekBit(start); err != nil {
				t.Fatal(err)
			}
			var wantSyms []uint64
			var wantErr error
			for len(wantSyms) < count {
				fsym, ferr := fast.Decode(fr)
				rsym, rerr := ref.Decode(rr)
				if (ferr == nil) != (rerr == nil) || fr.Offset() != rr.Offset() {
					t.Fatalf("oracle divergence at start %d: %v vs %v", start, ferr, rerr)
				}
				if ferr != nil {
					wantErr = ferr
					break
				}
				if fsym != rsym {
					t.Fatalf("oracle symbol divergence at start %d: %d vs %d", start, fsym, rsym)
				}
				wantSyms = append(wantSyms, fsym)
			}
			if n != len(wantSyms) {
				t.Fatalf("start %d: decoded %d symbols, oracle %d", start, n, len(wantSyms))
			}
			for j, want := range wantSyms {
				if out[j] != want {
					t.Fatalf("start %d: symbol %d = %d, oracle %d", start, j, out[j], want)
				}
			}
			if end != fr.Offset() {
				t.Fatalf("start %d: terminal offset %d, oracle %d", start, end, fr.Offset())
			}
			if (gerr == nil) != (wantErr == nil) {
				t.Fatalf("start %d: error %v, oracle %v", start, gerr, wantErr)
			}
			if gerr != nil {
				if gerr.Error() != wantErr.Error() {
					t.Fatalf("start %d: error text:\nkernel: %v\noracle: %v", start, gerr, wantErr)
				}
				if errors.Is(gerr, io.ErrUnexpectedEOF) != errors.Is(wantErr, io.ErrUnexpectedEOF) {
					t.Fatalf("start %d: EOF classification differs: %v vs %v", start, gerr, wantErr)
				}
			}
		}
	})
}

// referenceDecodeAll drains a stream with the reference decoder.
func referenceDecodeAll(ref *Decoder, stream []byte) ([]uint64, int, error) {
	r := bitio.NewReader(stream)
	var syms []uint64
	for {
		sym, err := ref.Decode(r)
		if err != nil {
			return syms, r.Offset(), err
		}
		syms = append(syms, sym)
	}
}
