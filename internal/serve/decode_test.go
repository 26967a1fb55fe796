package serve

import (
	"testing"

	"repro/internal/core"
)

// decodeAllocBound caps the allocations of one DecodeImage call on
// compress (188 blocks): the hasher, the reader and the word and byte
// buffers, which are reused across blocks and grow a few times.
// Allocating per block (a symbol or op slice each) costs hundreds.
const decodeAllocBound = 32

// TestDecodeImageAllocBound pins DecodeImage's allocations on compress
// for each of the six served schemes.
func TestDecodeImageAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c, err := core.CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []string{"base", "byte", "stream", "stream_1", "full", "tailored"} {
		enc, err := c.Encoder(sc)
		if err != nil {
			t.Fatal(err)
		}
		im, err := c.Image(sc)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := DecodeImage(im, enc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > decodeAllocBound {
			t.Errorf("%s: DecodeImage made %.0f allocations, bound %d", sc, allocs, decodeAllocBound)
		}
	}
}

// TestHashOpsPinned pins HashOps of compress, in the full scheme's
// placement order, to a recorded digest: the construction (LE op count,
// then LE op words, per block) is what tepicbench -serve -check and
// perfbench compare daemon decodes against, so it must not drift.
func TestHashOpsPinned(t *testing.T) {
	const want = "42ad2401ee017f6da0689973875c2a5dcfc6584ce869233881253147538c3f4c"
	c, err := core.CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	im, err := c.Image("full")
	if err != nil {
		t.Fatal(err)
	}
	if got := groundTruthHash(t, c, im); got != want {
		t.Errorf("HashOps(compress in full order) = %s, want %s", got, want)
	}
	enc, err := c.Encoder("full")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := DecodeImage(im, enc)
	if err != nil {
		t.Fatal(err)
	}
	if sum.OpsHash != want {
		t.Errorf("DecodeImage(compress/full).OpsHash = %s, want %s", sum.OpsHash, want)
	}
}
