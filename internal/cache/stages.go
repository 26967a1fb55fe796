package cache

import (
	"repro/internal/atb"
	"repro/internal/image"
)

// This file defines the stage interfaces of the IFetch pipeline. Sim.Run
// is a fixed driver loop over these stages; everything that distinguishes
// the paper's organizations (Base §3.4, Compressed §4, Tailored §5, the
// related-work CodePack §6) is data in an OrgSpec: which stages are
// present, the Decompressor volume rules, and the StartupTable timing.
// New organizations compose existing stage implementations via
// RegisterOrg without touching the driver loop.

// Predictor is the branch-direction prediction stage consulted by the
// ATB. See internal/atb for the paper's bimodal baseline and the
// future-work two-level predictors (gshare, PAs).
type Predictor = atb.DirectionPredictor

// ATBStage is the Address Translation Buffer stage: it maps the current
// block to a predicted next block (the paper's next-block prediction,
// §3.2) and is trained with actual outcomes.
type ATBStage interface {
	// Touch records an access for hit-rate accounting.
	Touch(block int)
	// Predict returns the predicted next block together with the
	// direction prediction: taken reports whether the block's terminator
	// is predicted taken (next is then the last recorded taken target),
	// not whether the ATB hit — residency is Touch/HitRate's business. A
	// next of -1 means the predictor has no target yet (a cold taken
	// prediction, or a block outside the loaded table) and will count as
	// a misprediction.
	Predict(block int) (next int, taken bool)
	// Update trains the entry with the branch outcome and actual target.
	Update(block int, taken bool, next int) error
	// HitRate returns the fraction of touches that hit the buffer.
	HitRate() float64
}

// CacheArray is the main instruction-cache storage stage, modeled at
// memory-line granularity (see LineCache for the banked set-associative
// implementation).
type CacheArray interface {
	// LineOf maps a byte address to its memory-line index.
	LineOf(addr int) int64
	// Probe reports whether a line is resident, updating recency on hit.
	Probe(line int64) bool
	// Fill installs a line, evicting as needed.
	Fill(line int64)
}

// L0Store is the small post-decompressor buffer stage of §4 that holds
// ready-to-issue MOPs of recently decompressed blocks.
type L0Store interface {
	// Lookup reports whether a block is resident, updating recency on hit.
	Lookup(block int) bool
	// Insert captures a freshly decompressed block of numOps operations.
	Insert(block, numOps int)
	// CapacityOps returns the buffer size in operations.
	CapacityOps() int
}

// BusModel is the memory-bus stage behind the cache: it carries miss
// repairs and accounts beats, payload bytes and bit flips (the paper's
// Figure 14 power proxy; see internal/power).
type BusModel interface {
	// Transfer sends one payload over the bus.
	Transfer(data []byte)
	// Counts returns cumulative beats, bit flips and payload bytes.
	Counts() (beats, flips, bytes int64)
}

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
