// Package huffman implements canonical Huffman coding over arbitrary
// integer symbol alphabets, including the length-limited ("bounded")
// variant the paper requires when plain Huffman would emit codes too long
// for the IFetch hardware (§2.2; compare Wolfe's Bounded Huffman codes).
//
// Code assignment is canonical: codewords are assigned in increasing
// (length, symbol) order, so tables are fully determined by the code
// lengths and decoding needs only per-length first-code offsets. The
// Decoder implements exactly that structure; its size statistics (longest
// code n, dictionary entries k, widest dictionary entry m) feed the
// paper's decoder-complexity model in package declogic.
package huffman

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/bitio"
)

// MaxCodeLen is the hard ceiling on codeword length accepted by the
// decoder structures (codes are kept in uint64 accumulators).
const MaxCodeLen = 57

// Code is one symbol's codeword: the Len low bits of Bits, emitted MSB
// first.
type Code struct {
	Bits uint64
	Len  int
}

// Table is a built Huffman code for one alphabet.
type Table struct {
	codes   map[uint64]Code
	syms    []uint64 // canonical order (by length, then symbol value)
	lens    []int    // code length per canonical symbol
	maxLen  int
	symBits int   // width of the widest symbol in bits (the "m" of the paper)
	total   int64 // total weight the table was built from
	bits    int64 // total encoded bits at those weights
}

// Errors returned by table construction, encoding and decoding. Every
// failure the package produces is (or wraps) one of these, so callers
// classify with errors.Is instead of string matching.
var (
	ErrEmpty    = errors.New("huffman: empty frequency table")
	ErrTooLong  = errors.New("huffman: code length limit unreachable")
	ErrBadLimit = errors.New("huffman: invalid length limit")
	// ErrBadFreq marks a non-positive symbol frequency in Build's input.
	ErrBadFreq = errors.New("huffman: non-positive frequency")
	// ErrUnknownSymbol marks an Encode of a symbol outside the table.
	ErrUnknownSymbol = errors.New("huffman: symbol not in table")
	// ErrInvalidCode marks a window of MaxLen stream bits matching no
	// codeword (reachable only through incomplete codes).
	ErrInvalidCode = errors.New("huffman: invalid codeword")
	// ErrSynthBound marks a dictionary too large for Verilog emission.
	ErrSynthBound = errors.New("huffman: dictionary exceeds the synthesis bound")
)

// Build constructs an optimal (unbounded) canonical Huffman table from
// symbol frequencies. Frequencies must be positive.
func Build(freq map[uint64]int64) (*Table, error) {
	return build(freq, 0)
}

// BuildLimited constructs an optimal length-limited canonical Huffman
// table using the package-merge algorithm: no codeword exceeds maxLen
// bits. It degrades gracefully to Build's result when the limit is slack.
func BuildLimited(freq map[uint64]int64, maxLen int) (*Table, error) {
	if maxLen < 1 || maxLen > MaxCodeLen {
		return nil, fmt.Errorf("%w: %d", ErrBadLimit, maxLen)
	}
	return build(freq, maxLen)
}

func build(freq map[uint64]int64, limit int) (*Table, error) {
	if len(freq) == 0 {
		return nil, ErrEmpty
	}
	syms := make([]uint64, 0, len(freq))
	for s, f := range freq {
		if f <= 0 {
			return nil, fmt.Errorf("%w %d for symbol %d", ErrBadFreq, f, s)
		}
		syms = append(syms, s)
	}
	slices.Sort(syms)
	if limit > 0 && 1<<uint(limit) < len(syms) {
		return nil, fmt.Errorf("%w: %d symbols cannot fit in %d-bit codes",
			ErrTooLong, len(syms), limit)
	}
	weights := make([]int64, len(syms))
	for i, s := range syms {
		weights[i] = freq[s]
	}

	var lens []int
	if len(syms) == 1 {
		lens = []int{1}
	} else if limit == 0 {
		lens = optimalLengths(weights)
	} else {
		lens = packageMerge(weights, limit)
	}

	return newCanonical(syms, lens, weights)
}

// byWeight returns the symbol indices ordered by (weight, index). The
// symbols are sorted, so this is (weight, symbol) order.
func byWeight(weights []int64) []int {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(weights[a], weights[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// optimalLengths runs Huffman's construction with two queues (van
// Leeuwen, 1976) and returns the code length of each symbol, aligned
// with weights. One queue holds the leaves in (weight, index) order; the
// other holds merged nodes in creation order, which is also weight order
// because every merge sums the two lightest nodes left. Each step pops
// the lighter front twice, taking the leaf on a tie. Numbering leaves
// 0..n-1 and merged nodes n, n+1, ... in creation order, that is exactly
// the (weight, number) order a min-heap pops, so the lengths equal the
// heap construction's bit for bit.
func optimalLengths(weights []int64) []int {
	n := len(weights)
	leaves := byWeight(weights)
	// Nodes 0..n-1 are the leaves, n..2n-2 the merged nodes.
	w := make([]int64, 2*n-1)
	copy(w, weights)
	parent := make([]int, 2*n-1)
	li, qi := 0, n // fronts of the leaf and merged queues
	pop := func(next int) int {
		if li < n && (qi == next || w[leaves[li]] <= w[qi]) {
			li++
			return leaves[li-1]
		}
		qi++
		return qi - 1
	}
	for next := n; next < 2*n-1; next++ {
		a := pop(next)
		b := pop(next)
		w[next] = w[a] + w[b]
		parent[a], parent[b] = next, next
	}
	// A parent is numbered after its children, so one descending pass
	// from the root fixes every depth.
	depth := make([]int, 2*n-1)
	for i := 2*n - 3; i >= 0; i-- {
		depth[i] = depth[parent[i]] + 1
	}
	return depth[:n]
}

// packageMerge computes optimal length-limited code lengths (Larmore &
// Hirschberg), aligned with weights. Symbols are the leaves; the number
// of times a leaf appears in the final solution set equals its code
// length. Packages are represented as binary trees so merging is O(1)
// and leaf multiplicities are recovered with one traversal at the end.
func packageMerge(weights []int64, limit int) []int {
	type pmNode struct {
		w           int64
		sym         int // index into weights
		leaf        bool
		left, right *pmNode
	}
	ordered := byWeight(weights)
	leafList := make([]*pmNode, len(ordered))
	for i, s := range ordered {
		leafList[i] = &pmNode{w: weights[s], sym: s, leaf: true}
	}

	merge := func(a, b []*pmNode) []*pmNode {
		out := make([]*pmNode, 0, len(a)+len(b))
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if a[i].w <= b[j].w {
				out = append(out, a[i])
				i++
			} else {
				out = append(out, b[j])
				j++
			}
		}
		out = append(out, a[i:]...)
		out = append(out, b[j:]...)
		return out
	}
	pair := func(l []*pmNode) []*pmNode {
		out := make([]*pmNode, 0, len(l)/2)
		for i := 0; i+1 < len(l); i += 2 {
			out = append(out, &pmNode{w: l[i].w + l[i+1].w, left: l[i], right: l[i+1]})
		}
		return out
	}

	list := append([]*pmNode(nil), leafList...)
	for level := 1; level < limit; level++ {
		list = merge(leafList, pair(list))
	}
	// Count leaf occurrences in the first 2n-2 packages of the final list.
	need := 2*len(weights) - 2
	lens := make([]int, len(weights))
	var stack []*pmNode
	for i := 0; i < need && i < len(list); i++ {
		stack = append(stack[:0], list[i])
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n.leaf {
				lens[n.sym]++
				continue
			}
			stack = append(stack, n.left, n.right)
		}
	}
	return lens
}

// newCanonical assigns canonical codewords given per-symbol lengths,
// both aligned with the sorted symbols. Canonical order is (length,
// symbol); bucketing the already sorted symbols by length yields it
// without a comparison sort.
func newCanonical(syms []uint64, lens []int, weights []int64) (*Table, error) {
	maxLen := slices.Max(lens)
	// Count each length into start[l+1]; the prefix sums then leave in
	// start[l] the canonical index of the first length-l code.
	start := make([]int, maxLen+2)
	for _, l := range lens {
		start[l+1]++
	}
	for l := 1; l <= maxLen; l++ {
		if l > MaxCodeLen && start[l+1] > 0 {
			return nil, fmt.Errorf("%w: code length %d", ErrTooLong, l)
		}
		start[l+1] += start[l]
	}
	t := &Table{
		codes:  make(map[uint64]Code, len(syms)),
		syms:   make([]uint64, len(syms)),
		lens:   make([]int, len(syms)),
		maxLen: maxLen,
	}
	for i, s := range syms {
		l := lens[i]
		k := start[l]
		start[l]++
		t.syms[k], t.lens[k] = s, l
		t.symBits = max(t.symBits, bitsFor(s))
		t.total += weights[i]
		t.bits += weights[i] * int64(l)
	}
	code := uint64(0)
	prevLen := 0
	for k, s := range t.syms {
		l := t.lens[k]
		code <<= uint(l - prevLen)
		t.codes[s] = Code{Bits: code, Len: l}
		code++
		prevLen = l
	}
	return t, nil
}

func bitsFor(v uint64) int {
	n := 1
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// CodeFor returns the codeword for a symbol.
func (t *Table) CodeFor(sym uint64) (Code, bool) {
	c, ok := t.codes[sym]
	return c, ok
}

// Encode appends a symbol's codeword to the bit stream.
func (t *Table) Encode(w *bitio.Writer, sym uint64) error {
	c, ok := t.codes[sym]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSymbol, sym)
	}
	w.WriteBits(c.Bits, c.Len)
	return nil
}

// EncodedBits returns the codeword length of a symbol; 0 if absent.
func (t *Table) EncodedBits(sym uint64) int { return t.codes[sym].Len }

// Entries returns the dictionary size k.
func (t *Table) Entries() int { return len(t.syms) }

// Symbols returns the table's symbols in canonical order (by code length,
// then symbol value). The returned slice is a copy.
func (t *Table) Symbols() []uint64 {
	return append([]uint64(nil), t.syms...)
}

// Lengths returns the code length of each canonical symbol, aligned with
// Symbols. The returned slice is a copy.
func (t *Table) Lengths() []int {
	return append([]int(nil), t.lens...)
}

// MaxLen returns the longest codeword length n.
func (t *Table) MaxLen() int { return t.maxLen }

// SymbolBits returns the widest dictionary entry m in bits.
func (t *Table) SymbolBits() int { return t.symBits }

// TotalBits returns the encoded size, in bits, of the corpus the table
// was built from.
func (t *Table) TotalBits() int64 { return t.bits }

// TotalWeight returns the corpus size (sum of frequencies).
func (t *Table) TotalWeight() int64 { return t.total }

// MeanLen returns the weighted mean codeword length in bits.
func (t *Table) MeanLen() float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.bits) / float64(t.total)
}

// Checksum returns a content fingerprint of the code assignment: a
// 64-bit FNV-1a hash over the canonical (symbol, length) pairs. Two
// tables encoding the same alphabet with identical codeword lengths —
// and therefore, being canonical, identical codewords — share a
// checksum. Artifact caches and determinism tests use it to compare
// dictionaries without walking them.
func (t *Table) Checksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for i, sym := range t.syms {
		mix(sym)
		mix(uint64(t.lens[i]))
	}
	return h
}

// EntropyOf computes the Shannon entropy in bits/symbol of a frequency map.
func EntropyOf(freq map[uint64]int64) float64 {
	var total int64
	for _, f := range freq {
		total += f
	}
	if total == 0 {
		return 0
	}
	e := 0.0
	for _, f := range freq {
		p := float64(f) / float64(total)
		e -= p * math.Log2(p)
	}
	return e
}

// NewDecoder builds the canonical decoder for the table.
func (t *Table) NewDecoder() *Decoder {
	d := &Decoder{maxLen: t.maxLen}
	d.count = make([]int, t.maxLen+1)
	for _, l := range t.lens {
		d.count[l]++
	}
	d.first = make([]uint64, t.maxLen+2)
	d.offset = make([]int, t.maxLen+2)
	code := uint64(0)
	idx := 0
	for l := 1; l <= t.maxLen; l++ {
		d.first[l] = code
		d.offset[l] = idx
		code = (code + uint64(d.count[l])) << 1
		idx += d.count[l]
	}
	d.syms = t.syms // canonical order already
	return d
}

// Decoder decodes canonical Huffman codewords bit by bit.
type Decoder struct {
	maxLen int
	count  []int
	first  []uint64
	offset []int
	syms   []uint64
}

// errTruncated reports a stream that ended mid-codeword. Both decoders
// construct their error terminals through these two helpers so the fast
// path is byte-identical to the reference, down to the reported offset of
// the codeword the failure happened in.
func errTruncated(start int) error {
	return fmt.Errorf("huffman: truncated codeword at bit %d: %w", start, io.ErrUnexpectedEOF)
}

// errInvalid reports maxLen bits that match no codeword (reachable only
// through incomplete codes, e.g. the single-symbol table).
func errInvalid(code uint64, start int) error {
	return fmt.Errorf("%w 0b%b at bit %d", ErrInvalidCode, code, start)
}

// Decode reads one symbol from the bit stream.
//
// Error behaviour is exact and shared with FastDecoder: a stream that
// ends mid-codeword consumes every remaining bit and returns an error
// wrapping io.ErrUnexpectedEOF that names the bit offset the codeword
// started at; maxLen bits matching no codeword consume exactly maxLen
// bits and return an invalid-codeword error with the same offset
// convention.
func (d *Decoder) Decode(r *bitio.Reader) (uint64, error) {
	start := r.Offset()
	code := uint64(0)
	for l := 1; l <= d.maxLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, errTruncated(start)
		}
		code = code<<1 | uint64(b)
		if d.count[l] > 0 && code-d.first[l] < uint64(d.count[l]) {
			return d.syms[d.offset[l]+int(code-d.first[l])], nil
		}
	}
	return 0, errInvalid(code, start)
}

// MaxLen returns the longest codeword the decoder accepts.
func (d *Decoder) MaxLen() int { return d.maxLen }
