package cache

import "repro/internal/image"

// This file defines the one pluggable stage of the IFetch pipeline. The
// pipeline itself is fixed: the ATB (atb.ATB), the optional L0 buffer
// (L0Buffer), the banked line cache (LineCache) and the memory bus
// (power.Bus), which Sim holds as concrete types. What distinguishes the
// paper's organizations (Base §3.4, Compressed §4, Tailored §5, the
// related-work CodePack §6) is data in an OrgSpec: whether the L0 buffer
// and a ROM image are present, the Decompressor volume rules below, and
// the StartupTable timing.

// Decompressor is the code-transformation stage between storage and the
// issue buffer — the hit-path Huffman decompressor of §4, the miss-path
// decompressor of CodePack (§6), or the tailored extractor of §5 (whose
// cost is pure timing, folded into the StartupTable, so its volume rule
// is the identity). It yields n, the line count the startup path streams
// through for one block, which Table 1 charges at one line per cycle.
// Both volumes must be pure functions of their arguments: NewOrgSim
// evaluates them once per block into the simulator's fetch table, and
// the per-event loop only reads that table.
type Decompressor interface {
	// HitLines returns n for a fetch served by the cache (or L0 buffer).
	HitLines(blk image.Block, lineBytes int) int
	// MissLines returns n for a fetch that missed; romBlk is the block's
	// footprint in the behind-the-bus ROM image for organizations that
	// keep one (zero otherwise).
	MissLines(blk, romBlk image.Block, lineBytes int) int
}

// PassThrough is the identity Decompressor: ops are stored ready to
// issue, so both paths stream the lines the block's placement touches
// (Base; also Tailored, whose extraction rides the miss-path timing).
type PassThrough struct{}

// HitLines implements Decompressor.
func (PassThrough) HitLines(blk image.Block, lineBytes int) int {
	return blk.Lines(lineBytes)
}

// MissLines implements Decompressor.
func (PassThrough) MissLines(blk, _ image.Block, lineBytes int) int {
	return blk.Lines(lineBytes)
}

// HitDecompress is the §4 hit-path rule: the banked cache extracts
// straddling data in one reference, so decompression scales with the
// block's data volume in lines, not its placement span.
type HitDecompress struct{}

// HitLines implements Decompressor.
func (HitDecompress) HitLines(blk image.Block, lineBytes int) int {
	return (blk.Bytes + lineBytes - 1) / lineBytes
}

// MissLines implements Decompressor.
func (HitDecompress) MissLines(blk, _ image.Block, lineBytes int) int {
	return blk.Lines(lineBytes)
}

// MissDecompress is the CodePack-style rule (§6): hits issue from an
// uncompressed cache at placement volume, while miss-time decompression
// runs over the block's compressed volume in the ROM image.
type MissDecompress struct{}

// HitLines implements Decompressor.
func (MissDecompress) HitLines(blk image.Block, lineBytes int) int {
	return blk.Lines(lineBytes)
}

// MissLines implements Decompressor.
func (MissDecompress) MissLines(_, romBlk image.Block, lineBytes int) int {
	return (romBlk.Bytes + lineBytes - 1) / lineBytes
}
