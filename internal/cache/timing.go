package cache

import "fmt"

// Org selects one of the IFetch organizations; it indexes the OrgSpec
// table in org.go.
type Org int

// The three organizations of Figures 11–13, plus the §6 CodePack model.
const (
	// OrgBase: the banked cache of §3.4 holding uncompressed 40-bit ops.
	OrgBase Org = iota
	// OrgTailored: §5 — the cache holds tailored ops ready for the core
	// decoder; extraction logic sits on the miss path (+1 cycle there).
	OrgTailored
	// OrgCompressed: §4 — the cache holds Huffman-compressed bits, the
	// decompressor sits on the hit path (pipelined, so +1 cycle of branch
	// misprediction penalty), and a 32-op L0 buffer holds recently
	// decompressed MOPs.
	OrgCompressed
	// OrgCodePack models the related-work organization the paper
	// criticizes (§6, IBM CodePack; also Wolfe's CCRP): the ROM holds
	// compressed code and decompression happens at cache *miss* time, so
	// the ICache holds uncompressed 40-bit ops. ROM size and bus traffic
	// shrink, but the cache gains no capacity and every miss repair pays
	// the decompression stage.
	OrgCodePack
)

// String returns the figure label for the organization.
func (o Org) String() string {
	if spec, ok := o.Spec(); ok {
		return spec.Name
	}
	return fmt.Sprintf("Org(%d)", int(o))
}

// StartupTable is one organization's row set of the paper's Table 1: the
// cycle cost to begin streaming a block as a function of the next-block
// prediction outcome, the cache hit/miss outcome, the L0 buffer outcome
// (organizations with a buffer only) and n, the number of memory lines
// that must be fetched (on the miss path) or decompressed (on a
// scaled hit path) to obtain the whole block. Miss cells always pay
// n-1 extra cycles (one line fetched per cycle); hit cells do so only
// when HitScalesN is set (a hit that streams through a decompressor).
//
// Two cells of the built-in Compressed table differ deliberately from a
// literal reading of the published matrix, following the paper's text
// rather than its (ambiguously typeset) table:
//
//   - A mispredicted fetch that hits the L0 buffer costs 2 cycles, not 1:
//     the buffer supplies ready MOPs but cannot undo the pipeline restart
//     (§4 presents the buffer as giving performance "equivalent to an
//     uncompressed cache" for resident loops, not better than it).
//   - A mispredicted fetch that hits the main (compressed) cache costs
//     3+(n-1), one more than Base's 2: this is exactly "the missprediction
//     penalty of the added Huffman decoder stage" that the abstract and
//     §6 name as the reason the Tailored ISA wins — with the published
//     2+(n-1) the added stage would be invisible for single-line blocks.
type StartupTable struct {
	PredHit     int // predicted correctly, cache hit
	PredMiss    int // predicted correctly, cache miss (+ n-1)
	MispredHit  int // mispredicted, cache hit
	MispredMiss int // mispredicted, cache miss (+ n-1)
	// HitScalesN charges n-1 extra cycles on the hit cells too (the
	// Compressed organization's hit-path decompressor).
	HitScalesN bool
	// BufPredHit and BufMispred are the L0-buffer-hit cells, consulted
	// before everything else (organizations with HasL0 only).
	BufPredHit int
	BufMispred int
}

// Cycles evaluates the table for one fetch. n clamps to 1.
//
//tepic:hotpath
func (t StartupTable) Cycles(predCorrect, cacheHit, bufHit bool, n int) int {
	if n < 1 {
		n = 1
	}
	if bufHit {
		if predCorrect {
			return t.BufPredHit
		}
		return t.BufMispred
	}
	switch {
	case predCorrect && cacheHit:
		if t.HitScalesN {
			return t.PredHit + (n - 1)
		}
		return t.PredHit
	case predCorrect:
		return t.PredMiss + (n - 1)
	case cacheHit:
		if t.HitScalesN {
			return t.MispredHit + (n - 1)
		}
		return t.MispredHit
	default:
		return t.MispredMiss + (n - 1)
	}
}

// StartupCycles evaluates an organization's Table 1 matrix. The bufHit
// flag is ignored for organizations without an L0 buffer.
func StartupCycles(org Org, predCorrect, cacheHit, bufHit bool, n int) int {
	spec, ok := org.Spec()
	if !ok {
		panic(fmt.Sprintf("cache: unknown organization %d", int(org)))
	}
	return spec.Timing.Cycles(predCorrect, cacheHit, bufHit && spec.HasL0, n)
}
