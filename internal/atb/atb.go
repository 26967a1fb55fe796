// Package atb models the Address Translation Buffer of paper §3.3: the
// hardware structure that maps original block addresses to encoded ones
// (caching ATT entries) and hosts the per-block next-block predictor of
// §3.4 — a 2-bit saturating counter for taken/not-taken plus a last-target
// register for the target address, with "next sequential block" as the
// not-taken prediction.
//
// The paper reports that, due to high spatial locality, the ATB has very
// low contention; the cycle model therefore charges no ATB miss penalty,
// but the buffer is still simulated (bounded capacity, LRU) so its hit
// rate can be reported and the claim checked.
package atb

import (
	"fmt"

	"repro/internal/lru"
)

// DefaultEntries is the modeled ATB capacity (ATT entries resident).
const DefaultEntries = 128

// BlockInfo is the static information the ATB needs per block: the
// fall-through successor used for not-taken predictions.
type BlockInfo struct {
	FallTarget int // next sequential block (-1 if none)
}

// InfosFromFalls builds the per-block table the ATB is loaded with from
// fall-through targets (one per block, -1 for none).
func InfosFromFalls(falls []int) []BlockInfo {
	infos := make([]BlockInfo, len(falls))
	for i, f := range falls {
		infos[i] = BlockInfo{FallTarget: f}
	}
	return infos
}

// ValidateInfos checks that every fall-through target names an existing
// block or is -1 ("none") — a dangling target would make the not-taken
// prediction point outside the translatable address space.
func ValidateInfos(infos []BlockInfo) error {
	for i, info := range infos {
		if info.FallTarget != -1 && (info.FallTarget < 0 || info.FallTarget >= len(infos)) {
			return fmt.Errorf("atb: block %d fall target %d outside [0,%d)",
				i, info.FallTarget, len(infos))
		}
	}
	return nil
}

// ATB is the translation buffer plus next-block predictor.
type ATB struct {
	capacity int
	blocks   []BlockInfo

	// Direction predictor (per-block bimodal by default; gshare or PAs
	// via NewWithPredictor) plus the last-taken-target registers the
	// paper couples with the ATB entries.
	dir    DirectionPredictor
	target []int32 // last-taken-target block ID, -1 if none yet

	// Residency simulation: LRU over the ATT entries, by block ID.
	resident *lru.List

	Hits   int64
	Misses int64
}

// New builds an ATB with the paper's per-block 2-bit counters. capacity
// <= 0 selects DefaultEntries.
func New(blocks []BlockInfo, capacity int) *ATB {
	return NewWithPredictor(blocks, capacity, NewBimodal(len(blocks)))
}

// NewWithPredictor builds an ATB with an explicit direction predictor
// (the paper's future-work gshare/PAs variants live in direction.go).
func NewWithPredictor(blocks []BlockInfo, capacity int, dir DirectionPredictor) *ATB {
	if capacity <= 0 {
		capacity = DefaultEntries
	}
	a := &ATB{
		capacity: capacity,
		blocks:   blocks,
		dir:      dir,
		target:   make([]int32, len(blocks)),
		resident: lru.New(len(blocks)),
	}
	for i := range a.target {
		a.target[i] = -1
	}
	return a
}

// Touch simulates the ATB lookup for a block, updating residency stats.
// A block outside the loaded table has no ATT entry to cache: it always
// misses and never becomes resident.
func (a *ATB) Touch(block int) {
	if a.resident.Touch(block) {
		a.Hits++
		return
	}
	a.Misses++
	if block < 0 || block >= len(a.blocks) {
		return
	}
	if a.resident.Len() >= a.capacity {
		a.resident.Remove(a.resident.Back())
	}
	a.resident.PushFront(block)
}

// HitRate returns the fraction of lookups that hit.
func (a *ATB) HitRate() float64 {
	total := a.Hits + a.Misses
	if total == 0 {
		return 0
	}
	return float64(a.Hits) / float64(total)
}

// Predict returns the predicted next block after `block`: the last taken
// target if the 2-bit counter predicts taken, the fall-through block
// otherwise. The boolean reports the taken prediction. A prediction of -1
// means "no idea" (cold target) and will count as a misprediction.
func (a *ATB) Predict(block int) (next int, taken bool) {
	if block < 0 || block >= len(a.blocks) {
		return -1, false
	}
	if a.dir.Predict(block) {
		return int(a.target[block]), true
	}
	return a.blocks[block].FallTarget, false
}

// Update trains the predictor with the actual outcome of a block's
// terminator: whether it left the fall-through path and where it went.
func (a *ATB) Update(block int, taken bool, actualNext int) error {
	if block < 0 || block >= len(a.blocks) {
		return fmt.Errorf("atb: block %d out of range", block)
	}
	a.dir.Update(block, taken)
	if taken {
		a.target[block] = int32(actualNext)
	}
	return nil
}

// Counter exposes a block's 2-bit counter state when the direction
// predictor is the paper's bimodal one (for tests); 0 otherwise.
func (a *ATB) Counter(block int) uint8 {
	if b, ok := a.dir.(*Bimodal); ok {
		return b.counters[block]
	}
	return 0
}

// PredictorName reports the direction predictor in use.
func (a *ATB) PredictorName() string { return a.dir.Name() }
