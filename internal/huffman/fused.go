package huffman

import "sort"

// Segment-pair table fusion.
//
// The stream schemes decode an operation as a fixed cycle of short
// codewords from tiny per-segment alphabets, so the per-symbol cost is
// all overhead: one table lookup, one length check, one shift per
// couple of bits of payload. Fusion collapses adjacent schedule phases:
// the concatenation of two prefix codes is itself a prefix code over
// the pair alphabet (distinct first codewords can't prefix each other,
// equal first codewords reduce to the second code's prefix-freedom), so
// a single two-level lookup keyed by the concatenated bits resolves two
// symbols at once. The fused table is built offline at kernel
// construction — the decode-table analogue of the paper's
// compiler-driven specialization — and the kernel's fused lockstep loop
// decodes through it at the per-step cost of a single-table lookup,
// halving the work per symbol.
//
// Fusion never changes observable behaviour: a bit pattern is covered
// by the fused table iff both halves decode, and the total consumed
// length is the sum, so any stream the per-symbol path accepts decodes
// identically, and any stream it rejects makes the fast engine abort to
// the per-symbol path (an uncovered index reads as the invalid entry 0),
// which reproduces the exact reference terminals.

// Fusion thresholds: the pair alphabet is the product of two segment
// alphabets, and the point of fusion is a table that stays cache-hot —
// a few thousand pairs with a root no larger than the unfused defaults.
const (
	maxFusedPairs    = 4096
	maxFusedRootBits = 11
)

// fusedTab is one fused schedule phase: the usual packed two-level
// lookup (leaf entries hold pairIndex<<6 | totalLen), resolving to two
// symbols per decode through the parallel symsA/symsB arrays.
type fusedTab struct {
	root     []uint32
	sub      []uint32
	symsA    []uint64
	symsB    []uint64
	rootBits int
}

// codewords recovers each symbol's canonical (code, length) from the
// built tables — the exact inverse of NewFastDecoder's replication:
// root leaves shed their replicated low bits, sub leaves prepend their
// root prefix. Indexed by symbol position in syms.
func (d *FastDecoder) codewords() (codes []uint64, lens []int) {
	codes = make([]uint64, len(d.syms))
	lens = make([]int, len(d.syms))
	for idx, e := range d.root {
		if e == 0 {
			continue
		}
		if e&fastSubFlag == 0 {
			l := int(e & fastLenMask)
			i := int(e >> 6)
			lens[i] = l
			codes[i] = uint64(idx) >> uint(d.rootBits-l)
			continue
		}
		sb := int(e & fastLenMask)
		off := int(e >> 6 & (fastMaxSyms - 1))
		for w := 0; w < 1<<uint(sb); w++ {
			se := d.sub[off+w]
			if se == 0 {
				continue
			}
			l := int(se & fastLenMask)
			i := int(se >> 6)
			lens[i] = l
			codes[i] = (uint64(idx)<<uint(sb) | uint64(w)) >> uint(d.rootBits+sb-l)
		}
	}
	return codes, lens
}

// fuseTables builds the pair table for two adjacent schedule phases, or
// returns nil when fusion wouldn't pay: a pair alphabet past the cache
// budget, or concatenated codes that overflow the kernel's 56-bit
// window. The construction mirrors NewFastDecoder's two passes over the
// explicit pair codewords (codeA·codeB, lenA+lenB), which form a prefix
// code and so never collide.
func fuseTables(a, b *FastDecoder) *fusedTab {
	na, nb := len(a.syms), len(b.syms)
	if na == 0 || nb == 0 || na*nb > maxFusedPairs || a.maxLen+b.maxLen > 56 {
		return nil
	}
	codesA, lensA := a.codewords()
	codesB, lensB := b.codewords()

	maxLen := a.maxLen + b.maxLen
	rootBits := maxLen
	if rootBits > maxFusedRootBits {
		rootBits = maxFusedRootBits
	}
	f := &fusedTab{
		rootBits: rootBits,
		root:     make([]uint32, 1<<uint(rootBits)),
		symsA:    make([]uint64, 0, na*nb),
		symsB:    make([]uint64, 0, na*nb),
	}

	type pairCode struct {
		code uint64
		len  int
	}
	pairs := make([]pairCode, 0, na*nb)
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			pairs = append(pairs, pairCode{
				code: codesA[i]<<uint(lensB[j]) | codesB[j],
				len:  lensA[i] + lensB[j],
			})
			f.symsA = append(f.symsA, a.syms[i])
			f.symsB = append(f.symsB, b.syms[j])
		}
	}

	// First pass: size one sub-table per rootBits prefix shared by pairs
	// longer than the root index.
	subLen := map[uint64]int{}
	for _, p := range pairs {
		if p.len > rootBits {
			pre := p.code >> uint(p.len-rootBits)
			if p.len > subLen[pre] {
				subLen[pre] = p.len
			}
		}
	}
	prefixes := make([]uint64, 0, len(subLen))
	for pre := range subLen {
		prefixes = append(prefixes, pre)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })
	subOff := make(map[uint64]int, len(prefixes))
	for _, pre := range prefixes {
		bits := subLen[pre] - rootBits
		subOff[pre] = len(f.sub)
		f.root[pre] = fastSubFlag | uint32(len(f.sub))<<6 | uint32(bits)
		f.sub = append(f.sub, make([]uint32, 1<<uint(bits))...)
	}

	// Second pass: replicate each pair leaf across every index its
	// concatenated codeword prefixes.
	for i, p := range pairs {
		e := uint32(i)<<6 | uint32(p.len)
		if p.len <= rootBits {
			base := p.code << uint(rootBits-p.len)
			for j := uint64(0); j < 1<<uint(rootBits-p.len); j++ {
				f.root[base+j] = e
			}
			continue
		}
		pre := p.code >> uint(p.len-rootBits)
		span := subLen[pre] - p.len
		base := uint64(subOff[pre]) + (p.code&(1<<uint(p.len-rootBits)-1))<<uint(span)
		for j := uint64(0); j < 1<<uint(span); j++ {
			f.sub[base+j] = e
		}
	}
	return f
}

// fuseSchedule pairs up an even-length schedule phase by phase,
// returning nil unless every pair fuses — the kernel either decodes a
// whole op through fused tables or not at all, so phase lockstep stays
// trivial.
func fuseSchedule(sched []*FastDecoder) []fusedTab {
	if len(sched) < 2 || len(sched)%2 != 0 {
		return nil
	}
	fused := make([]fusedTab, len(sched)/2)
	for i := range fused {
		f := fuseTables(sched[2*i], sched[2*i+1])
		if f == nil {
			return nil
		}
		fused[i] = *f
	}
	return fused
}
