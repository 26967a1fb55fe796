package compress_test

import (
	"testing"

	"repro/internal/bitio"
)

// BenchmarkDecodeTiers times, for every batch-capable scheme, a whole
// benchmark image decoded block by block through the fast per-symbol
// face (SeekBit + DecodeBlockSymbols, the pre-kernel decode path) and
// through the batch face (DecodeRun, the served block kernel one block
// after another), each tier warm and alone. tepicbench's lane gain is
// measured by core.MeasureDecodeThroughput instead, which interleaves
// the fast, reference and batch passes in every round and times the
// batch through DecodePlan.DecodeSymbols. The two shapes can disagree
// on a kernel change, so check one with MeasureDecodeThroughput too.
func BenchmarkDecodeTiers(b *testing.B) {
	for _, scheme := range batchSchemes {
		bd, sd, data, addrs, counts := batchFixture(b, scheme)
		var bits int64
		b.Run(scheme+"/fast", func(b *testing.B) {
			r := bitio.NewReader(data)
			for i := 0; i < b.N; i++ {
				bits = 0
				for j := range addrs {
					if err := r.SeekBit(addrs[j] * 8); err != nil {
						b.Fatal(err)
					}
					before := r.Offset()
					if _, err := sd.DecodeBlockSymbols(r, counts[j]); err != nil {
						b.Fatal(err)
					}
					bits += int64(r.Offset() - before)
				}
			}
			b.SetBytes(bits / 8)
		})
		b.Run(scheme+"/batch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if _, bits, err = bd.DecodeRun(data, addrs, counts); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(bits / 8)
		})
	}
}
