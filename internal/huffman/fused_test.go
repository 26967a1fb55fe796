package huffman

import (
	"math/rand"
	"testing"
)

// fusedLookup resolves a left-aligned 64-bit window through a fused
// table exactly as the kernel's fused loop does, returning the raw
// entry (pairIndex<<6 | totalLen, or 0 when the window is uncovered).
func fusedLookup(f *fusedTab, window uint64) uint32 {
	rb := f.rootBits
	e := f.root[window>>uint(64-rb)]
	if e&fastSubFlag != 0 {
		sb := int(e & fastLenMask)
		w := window >> uint(64-rb-sb)
		e = f.sub[int(e>>6&(fastMaxSyms-1))+int(w&(1<<uint(sb)-1))]
	}
	return e
}

// tableOf builds an unbounded table over n symbols with random skewed
// frequencies.
func tableOf(t *testing.T, rng *rand.Rand, n int) *Table {
	t.Helper()
	tab, err := Build(randFreq(rng, n, true))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestFuseTablesPairs: every pair (i, j) of two tables' symbols must
// resolve its concatenated codeword, taken from the encode side, to
// symsA = a.syms[i], symsB = b.syms[j] and length lenA+lenB. The pairs
// span root-only and overflow sub-table leaves.
func TestFuseTablesPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, sizes := range [][2]int{{2, 3}, {5, 40}, {60, 60}, {17, 1}} {
		ta, tb := tableOf(t, rng, sizes[0]), tableOf(t, rng, sizes[1])
		a, b := ta.NewFastDecoder(), tb.NewFastDecoder()
		f := fuseTables(a, b)
		if f == nil {
			t.Fatalf("%v: tables with %d pairs did not fuse", sizes, sizes[0]*sizes[1])
		}
		sawSub := false
		for i, sa := range a.syms {
			ca, _ := ta.CodeFor(sa)
			for j, sb := range b.syms {
				cb, _ := tb.CodeFor(sb)
				l := ca.Len + cb.Len
				code := ca.Bits<<uint(cb.Len) | cb.Bits
				e := fusedLookup(f, code<<uint(64-l))
				if got := int(e & fastLenMask); got != l {
					t.Fatalf("%v: pair (%d, %d) length %d, want %d", sizes, i, j, got, l)
				}
				pi := e >> 6
				if f.symsA[pi] != sa || f.symsB[pi] != sb {
					t.Fatalf("%v: pair (%d, %d) resolved to (%d, %d), want (%d, %d)",
						sizes, i, j, f.symsA[pi], f.symsB[pi], sa, sb)
				}
				if l > f.rootBits {
					sawSub = true
				}
			}
		}
		if sizes == [2]int{60, 60} && !sawSub {
			t.Fatalf("%v: no pair reached the overflow sub-table", sizes)
		}
	}
}

// TestFuseTablesUncovered: a one-symbol table's code ("0") leaves half
// its code space unused, so part of the fused index space matches no
// pair and must read as the invalid entry 0 — the kernel's abort
// signal. The pair codes here fit the root, so every root index is
// checked against the pair, if any, whose codeword prefixes it.
func TestFuseTablesUncovered(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	ta := tableOf(t, rng, 9)
	tb, err := Build(map[uint64]int64{42: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, ab := range [][2]*Table{{ta, tb}, {tb, ta}} {
		f := fuseTables(ab[0].NewFastDecoder(), ab[1].NewFastDecoder())
		if f == nil {
			t.Fatal("one-symbol table did not fuse")
		}
		if len(f.sub) != 0 {
			t.Fatalf("fixture spilled into a %d-entry sub-table", len(f.sub))
		}
		uncovered := 0
		for idx := range f.root {
			window := uint64(idx) << uint(64-f.rootBits)
			wantLen := 0
			for _, sa := range ab[0].Symbols() {
				ca, _ := ab[0].CodeFor(sa)
				for _, sb := range ab[1].Symbols() {
					cb, _ := ab[1].CodeFor(sb)
					l := ca.Len + cb.Len
					if window>>uint(64-l) == ca.Bits<<uint(cb.Len)|cb.Bits {
						wantLen = l
					}
				}
			}
			e := fusedLookup(f, window)
			if wantLen == 0 {
				uncovered++
				if e != 0 {
					t.Fatalf("root index %d matches no pair but reads %#x, want 0", idx, e)
				}
			} else if int(e&fastLenMask) != wantLen {
				t.Fatalf("root index %d reads length %d, want %d", idx, e&fastLenMask, wantLen)
			}
		}
		if uncovered != len(f.root)/2 {
			t.Fatalf("%d of %d root indices uncovered, want half", uncovered, len(f.root))
		}
	}
}

// TestFuseScheduleDeclines: fuseSchedule returns nil unless every
// adjacent pair of an even-length schedule fuses.
func TestFuseScheduleDeclines(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	small := tableOf(t, rng, 8).NewFastDecoder()
	if fuseSchedule([]*FastDecoder{small, small}) == nil {
		t.Fatal("small even schedule did not fuse")
	}
	if fuseSchedule([]*FastDecoder{small, small, small}) != nil {
		t.Error("odd-length schedule fused")
	}
	if fuseSchedule([]*FastDecoder{small}) != nil {
		t.Error("one-table schedule fused")
	}
	// 65 x 64 pairs is just over maxFusedPairs (4096).
	big1, big2 := tableOf(t, rng, 65).NewFastDecoder(), tableOf(t, rng, 64).NewFastDecoder()
	if n := len(big1.syms) * len(big2.syms); n <= maxFusedPairs {
		t.Fatalf("fixture has %d pairs, want more than %d", n, maxFusedPairs)
	}
	if fuseSchedule([]*FastDecoder{small, small, big1, big2}) != nil {
		t.Error("schedule with a pair alphabet over maxFusedPairs fused")
	}
	if fuseSchedule([]*FastDecoder{big2, big2}) == nil {
		t.Error("64 x 64 pair alphabet (= maxFusedPairs) did not fuse")
	}
	// Fibonacci weights give the deepest possible code: n symbols reach
	// n-1 bits, so 30 and 29 symbols give 29 + 28 = 57-bit pairs.
	deep := func(n int) *FastDecoder {
		freq := map[uint64]int64{}
		x, y := int64(1), int64(1)
		for s := 0; s < n; s++ {
			freq[uint64(s)] = x
			x, y = y, x+y
		}
		tab, err := Build(freq)
		if err != nil {
			t.Fatal(err)
		}
		return tab.NewFastDecoder()
	}
	d30, d29 := deep(30), deep(29)
	if d30.maxLen+d29.maxLen != 57 {
		t.Fatalf("deep tables have %d + %d bits, want 57", d30.maxLen, d29.maxLen)
	}
	if fuseSchedule([]*FastDecoder{d30, d29}) != nil {
		t.Error("schedule with 57-bit pairs fused")
	}
}
