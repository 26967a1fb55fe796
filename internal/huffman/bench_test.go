package huffman

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// benchAlphabet mimics one of the compression schemes' symbol
// distributions: "byte" is the byte-based alphabet (256 symbols),
// "stream" a 5-bit stream segment (32 symbols), "full" the whole-op
// alphabet (thousands of distinct words, heavily skewed).
type benchAlphabet struct {
	name  string
	nsyms int
	skew  float64
}

var benchAlphabets = []benchAlphabet{
	{"byte", 256, 2},
	{"stream", 32, 1.5},
	{"full", 4096, 3},
}

// buildBenchStream constructs the alphabet's table and an encoded stream
// of nops symbols drawn from the same distribution.
func buildBenchStream(tb testing.TB, a benchAlphabet, nops int) (*Table, []byte) {
	rng := rand.New(rand.NewSource(97))
	freq := map[uint64]int64{}
	for i := 0; i < a.nsyms; i++ {
		freq[uint64(i)] = 1 + int64(1e6*math.Pow(rng.Float64(), a.skew))
	}
	tab, err := Build(freq)
	if err != nil {
		tb.Fatal(err)
	}
	// Sample symbols proportional to frequency via the cumulative sum.
	var total int64
	cum := make([]int64, a.nsyms)
	for i := 0; i < a.nsyms; i++ {
		total += freq[uint64(i)]
		cum[i] = total
	}
	var w bitio.Writer
	for i := 0; i < nops; i++ {
		x := rng.Int63n(total)
		lo, hi := 0, a.nsyms-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] <= x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if err := tab.Encode(&w, uint64(lo)); err != nil {
			tb.Fatal(err)
		}
	}
	return tab, w.Bytes()
}

const benchOps = 1 << 15

func BenchmarkDecodeFast(b *testing.B) {
	for _, a := range benchAlphabets {
		b.Run(a.name, func(b *testing.B) {
			tab, data := buildBenchStream(b, a, benchOps)
			dec := tab.NewFastDecoder()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := bitio.NewReader(data)
				for j := 0; j < benchOps; j++ {
					if _, err := dec.Decode(r); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkDecodeReference(b *testing.B) {
	for _, a := range benchAlphabets {
		b.Run(a.name, func(b *testing.B) {
			tab, data := buildBenchStream(b, a, benchOps)
			dec := tab.NewDecoder()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := bitio.NewReader(data)
				for j := 0; j < benchOps; j++ {
					if _, err := dec.Decode(r); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
