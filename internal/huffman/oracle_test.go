package huffman

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

// oracleLengths is the classic heap-based Huffman construction the
// two-queue build replaced: a min-heap over (weight, order), leaves
// numbered by symbol rank and merged nodes numbered in creation order.
// It returns code lengths per symbol.
func oracleLengths(syms []uint64, freq map[uint64]int64) map[uint64]int {
	if len(syms) == 1 {
		return map[uint64]int{syms[0]: 1}
	}
	type node struct {
		w           int64
		sym         uint64
		leaf        bool
		left, right int
	}
	nodes := make([]node, 0, 2*len(syms))
	var h nodeHeap
	for i, s := range syms {
		nodes = append(nodes, node{w: freq[s], sym: s, leaf: true})
		heap.Push(&h, item{w: freq[s], idx: i, order: i})
	}
	order := len(syms)
	for h.Len() > 1 {
		a := heap.Pop(&h).(item)
		b := heap.Pop(&h).(item)
		nodes = append(nodes, node{w: a.w + b.w, left: a.idx, right: b.idx})
		heap.Push(&h, item{w: a.w + b.w, idx: len(nodes) - 1, order: order})
		order++
	}
	root := heap.Pop(&h).(item).idx
	lens := make(map[uint64]int, len(syms))
	type frame struct{ idx, depth int }
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := nodes[f.idx]
		if n.leaf {
			lens[n.sym] = f.depth
			continue
		}
		stack = append(stack, frame{n.left, f.depth + 1}, frame{n.right, f.depth + 1})
	}
	return lens
}

type item struct {
	w     int64
	idx   int
	order int
}

type nodeHeap []item

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].w != h[j].w {
		return h[i].w < h[j].w
	}
	return h[i].order < h[j].order
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(item)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// oracleTable is the heap construction's canonical table: symbols sorted
// by (length, symbol) with a comparator, as the build did before it
// bucketed by length. Only syms and lens are filled, which is all
// Checksum reads.
func oracleTable(freq map[uint64]int64) *Table {
	syms := make([]uint64, 0, len(freq))
	for s := range freq {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	lens := oracleLengths(syms, freq)
	sort.Slice(syms, func(i, j int) bool {
		if lens[syms[i]] != lens[syms[j]] {
			return lens[syms[i]] < lens[syms[j]]
		}
		return syms[i] < syms[j]
	})
	t := &Table{syms: syms}
	for _, s := range syms {
		t.lens = append(t.lens, lens[s])
	}
	return t
}

// tiedFreq draws n distinct symbols whose weights come from a pool of
// `distinct` values mixing 1, small counts and values near 2^40, so most
// weights tie and merged nodes tie with leaves.
func tiedFreq(r *rand.Rand, n, distinct int) map[uint64]int64 {
	pool := make([]int64, distinct)
	for i := range pool {
		switch r.Intn(3) {
		case 0:
			pool[i] = 1
		case 1:
			pool[i] = 1 + r.Int63n(16)
		default:
			pool[i] = 1<<40 - r.Int63n(1<<20)
		}
	}
	freq := make(map[uint64]int64, n)
	for len(freq) < n {
		sym := r.Uint64() >> uint(r.Intn(64))
		freq[sym] = pool[r.Intn(len(pool))]
	}
	return freq
}

// requireOracleLengths builds freq with the two-queue construction and
// requires its canonical symbols, lengths and Checksum to equal the heap
// oracle's.
func requireOracleLengths(t *testing.T, freq map[uint64]int64) {
	t.Helper()
	tab, err := Build(freq)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	want := oracleTable(freq)
	got, gotLens := tab.Symbols(), tab.Lengths()
	for i := range want.syms {
		if got[i] != want.syms[i] || gotLens[i] != want.lens[i] {
			t.Fatalf("%d symbols: canonical entry %d is (%d, len %d), oracle (%d, len %d)",
				len(freq), i, got[i], gotLens[i], want.syms[i], want.lens[i])
		}
	}
	if tab.Checksum() != want.Checksum() {
		t.Fatalf("%d symbols: checksum %x, oracle %x", len(freq), tab.Checksum(), want.Checksum())
	}
}

// FuzzBuildLengths checks the two-queue build against the heap oracle on
// frequency maps with heavy ties, 1 to 2000 symbols.
func FuzzBuildLengths(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0))     // one symbol
	f.Add(int64(2), uint16(1), uint8(0))     // two symbols, one weight
	f.Add(int64(3), uint16(255), uint8(2))   // ties everywhere
	f.Add(int64(4), uint16(1999), uint8(15)) // the widest alphabet
	f.Add(int64(5), uint16(700), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, distinct uint8) {
		r := rand.New(rand.NewSource(seed))
		requireOracleLengths(t, tiedFreq(r, 1+int(n)%2000, 1+int(distinct)%32))
	})
}
