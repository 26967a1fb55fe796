package huffman

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// TestDecodeZeroAlloc is the dynamic half of the //tepic:hotpath
// contract on FastDecoder.Decode: the static hotalloc analyzer proves
// the body contains no allocating construct, and this test pins the
// compiler's side of the bargain — zero allocations per decoded symbol
// run on a real table. A regression here with a clean
// tepicvet run means an escape or a callee changed, not the annotated
// body.
func TestDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	const nsyms = 300
	rng := rand.New(rand.NewSource(1))
	freq := map[uint64]int64{}
	for s := uint64(0); s < nsyms; s++ {
		freq[s] = 1 + int64(rng.Intn(1000))
	}
	tab, err := Build(freq)
	if err != nil {
		t.Fatal(err)
	}

	const count = 512
	var w bitio.Writer
	want := make([]uint64, count)
	for i := range want {
		want[i] = uint64(rng.Intn(nsyms))
		if err := tab.Encode(&w, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	r := bitio.NewReader(w.Bytes())
	dec := tab.NewFastDecoder()
	out := make([]uint64, count)
	allocs := testing.AllocsPerRun(100, func() {
		if err := r.SeekBit(0); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			sym, err := dec.Decode(r)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = sym
		}
	})
	if allocs != 0 {
		t.Errorf("Decode: %.1f allocs per %d symbols, want 0", allocs, count)
	}

	for i, sym := range out {
		if sym != want[i] {
			t.Fatalf("symbol %d: decoded %d, want %d", i, sym, want[i])
		}
	}
}
