package atb

import (
	"math/rand"
	"slices"
	"testing"
)

func mkATB(n, capacity int) *ATB {
	infos := make([]BlockInfo, n)
	for i := range infos {
		infos[i] = BlockInfo{FallTarget: i + 1}
	}
	infos[n-1].FallTarget = -1
	return New(infos, capacity)
}

func TestPredictColdIsFallThrough(t *testing.T) {
	a := mkATB(4, 0)
	next, taken := a.Predict(0)
	if taken || next != 1 {
		t.Errorf("cold prediction = (%d, %v), want (1, false)", next, taken)
	}
}

func TestCounterSaturation(t *testing.T) {
	a := mkATB(4, 0)
	for i := 0; i < 10; i++ {
		a.Update(0, true, 3)
	}
	if a.Counter(0) != 3 {
		t.Errorf("counter = %d, want saturated 3", a.Counter(0))
	}
	for i := 0; i < 10; i++ {
		a.Update(0, false, 1)
	}
	if a.Counter(0) != 0 {
		t.Errorf("counter = %d, want saturated 0", a.Counter(0))
	}
}

func TestPredictorLearnsTakenBranch(t *testing.T) {
	a := mkATB(8, 0)
	// Two taken updates flip the 2-bit counter (init 1) to predict-taken.
	a.Update(2, true, 7)
	next, taken := a.Predict(2)
	if !taken || next != 7 {
		t.Errorf("after 1 taken: (%d,%v), want (7,true) with init-weak counter", next, taken)
	}
}

func TestPredictorTracksLastTarget(t *testing.T) {
	a := mkATB(8, 0)
	a.Update(2, true, 7)
	a.Update(2, true, 5) // target changed (e.g. return to another caller)
	next, taken := a.Predict(2)
	if !taken || next != 5 {
		t.Errorf("last-target prediction = (%d,%v), want (5,true)", next, taken)
	}
}

func TestPredictorHysteresis(t *testing.T) {
	a := mkATB(8, 0)
	for i := 0; i < 4; i++ {
		a.Update(3, true, 6)
	}
	// One not-taken must not flip a saturated counter.
	a.Update(3, false, 4)
	if _, taken := a.Predict(3); !taken {
		t.Error("single not-taken flipped a saturated taken counter")
	}
}

func TestUpdateRange(t *testing.T) {
	a := mkATB(4, 0)
	// Blocks outside the table have no entry to train: Update leaves
	// every in-table prediction cold.
	a.Update(99, true, 0)
	a.Update(-1, true, 0)
	for b := 0; b < 4; b++ {
		if _, taken := a.Predict(b); taken {
			t.Errorf("out-of-range Update trained block %d", b)
		}
	}
	if next, taken := a.Predict(-1); next != -1 || taken {
		t.Error("Predict out-of-range should be (-1,false)")
	}
}

func TestResidencyLRU(t *testing.T) {
	a := mkATB(10, 2)
	a.Touch(0) // miss
	a.Touch(1) // miss
	a.Touch(0) // hit
	a.Touch(2) // miss, evicts 1
	a.Touch(1) // miss again
	if a.Hits != 1 || a.Misses != 4 {
		t.Errorf("hits/misses = %d/%d, want 1/4", a.Hits, a.Misses)
	}
	if r := a.HitRate(); r != 0.2 {
		t.Errorf("hit rate %g, want 0.2", r)
	}
}

func TestHighLocalityHitRate(t *testing.T) {
	// The paper's claim: high spatial locality means very low ATB
	// contention. A loopy reference stream must hit nearly always.
	a := mkATB(64, DefaultEntries)
	for rep := 0; rep < 1000; rep++ {
		for b := 0; b < 8; b++ {
			a.Touch(b)
		}
	}
	if a.HitRate() < 0.99 {
		t.Errorf("loop hit rate %.3f, want > 0.99", a.HitRate())
	}
}

// TestPredictReportsDirectionNotResidency pins the Predict contract: the
// boolean is the direction prediction (taken/not-taken) for the block's
// terminator, NOT whether the ATB holds the block — residency is
// Touch/HitRate's business and never changes what Predict returns.
func TestPredictReportsDirectionNotResidency(t *testing.T) {
	a := mkATB(4, 1) // capacity 1: at most one block resident at a time

	// Block 2 is trained strongly taken, then evicted from the ATB by
	// touching other blocks. Its direction prediction must survive.
	a.Update(2, true, 0)
	a.Update(2, true, 0)
	a.Touch(2)
	a.Touch(0)
	a.Touch(1) // block 2 long evicted from the single-entry buffer
	if next, taken := a.Predict(2); !taken || next != 0 {
		t.Errorf("evicted trained block: Predict = (%d, %v), want (0, true)", next, taken)
	}

	// A resident but cold block still predicts not-taken fall-through:
	// residency must not read as a taken prediction either.
	a.Touch(1)
	if next, taken := a.Predict(1); taken || next != 2 {
		t.Errorf("resident cold block: Predict = (%d, %v), want (2, false)", next, taken)
	}

	// The taken target is the LAST recorded one, tracked across
	// intervening not-taken outcomes.
	a.Update(3, true, 0) // counter 1 -> 2, target recorded
	a.Update(3, false, 0)
	a.Update(3, true, 1)
	if next, taken := a.Predict(3); !taken || next != 1 {
		t.Errorf("retrained block: Predict = (%d, %v), want (1, true)", next, taken)
	}

	// Out-of-table blocks: (-1, false), never a panic.
	if next, taken := a.Predict(99); taken || next != -1 {
		t.Errorf("out-of-table block: Predict = (%d, %v), want (-1, false)", next, taken)
	}
}

// TestResidencyAgainstReference drives Touch and a naive MRU-first
// slice with the same random block stream and compares Hits and Misses
// after every call. Streams mix a hot working set with cold blocks from
// the whole table, so both the hit path and LRU eviction are exercised.
func TestResidencyAgainstReference(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(11))
	for _, capacity := range []int{1, 2, 128} {
		a := mkATB(n, capacity)
		var ref []int // MRU first
		var hits, misses int64
		for op := 0; op < 20000; op++ {
			b := rng.Intn(n)
			if rng.Intn(4) != 0 {
				b = rng.Intn(2 * capacity) // hot set, about twice the capacity
			}
			a.Touch(b)
			i := slices.Index(ref, b)
			if i >= 0 {
				hits++
				ref = slices.Delete(ref, i, i+1)
			} else {
				misses++
				if len(ref) >= capacity {
					ref = ref[:len(ref)-1]
				}
			}
			ref = slices.Insert(ref, 0, b)
			if a.Hits != hits || a.Misses != misses {
				t.Fatalf("capacity %d op %d: Touch(%d) hits/misses %d/%d, oracle %d/%d",
					capacity, op, b, a.Hits, a.Misses, hits, misses)
			}
		}
		// A block outside the table misses and displaces nothing.
		lru := ref[len(ref)-1]
		a.Touch(n + 5)
		a.Touch(lru)
		if a.Misses != misses+1 || a.Hits != hits+1 {
			t.Errorf("capacity %d: out-of-table touch changed residency (hits/misses %d/%d)",
				capacity, a.Hits, a.Misses)
		}
	}
}
