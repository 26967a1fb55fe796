package simcheck

import (
	"testing"

	"repro/internal/cache"
)

// TestStartupCyclesMatchesTable cross-checks the oracle's independent
// Table 1 evaluator against the cache package's StartupTable.Cycles
// over every cell of every organization's matrix and a range of n — the
// two implementations must price every fetch identically. One extra
// matrix that no organization uses (PredHit 2 and a buffered mispredict
// of 3 appear in no built-in row) covers cell values outside Table 1.
func TestStartupCyclesMatchesTable(t *testing.T) {
	type matrix struct {
		name  string
		hasL0 bool
		tab   cache.StartupTable
	}
	var matrices []matrix
	for _, org := range cache.Orgs() {
		spec, ok := org.Spec()
		if !ok {
			t.Fatalf("org %d has no spec", int(org))
		}
		matrices = append(matrices, matrix{spec.Name, spec.HasL0, spec.Timing})
	}
	matrices = append(matrices, matrix{"OracleProbe", true, cache.StartupTable{
		PredHit: 2, PredMiss: 4, MispredHit: 4, MispredMiss: 11,
		HitScalesN: true,
		BufPredHit: 1, BufMispred: 3,
	}})
	for _, m := range matrices {
		for _, predOK := range []bool{true, false} {
			for _, hit := range []bool{true, false} {
				for _, buf := range []bool{true, false} {
					if buf && !m.hasL0 {
						continue
					}
					for n := 0; n <= 5; n++ {
						got := startupCycles(m.tab, predOK, hit, buf, n)
						want := int64(m.tab.Cycles(predOK, hit, buf, n))
						if got != want {
							t.Errorf("%s: pred=%v hit=%v buf=%v n=%d: oracle %d, table %d",
								m.name, predOK, hit, buf, n, got, want)
						}
					}
				}
			}
		}
	}
}

// TestLRUModel pins the timestamp-map LRU against hand-computed
// behavior: 2 sets x 2 ways, lines land in set line%2.
func TestLRUModel(t *testing.T) {
	m := newLRUModel(2, 2)
	for _, line := range []int64{0, 2, 4} { // all set 0; 4 evicts 0 (LRU)
		if m.probe(line) {
			t.Errorf("cold probe(%d) hit", line)
		}
		m.fill(line)
	}
	if m.probe(0) {
		t.Error("line 0 survived eviction from a 2-way set after 3 fills")
	}
	if !m.probe(2) || !m.probe(4) {
		t.Error("lines 2 and 4 should be resident")
	}
	// probe(2) above refreshed 2, so filling 6 must evict 4.
	m.probe(2)
	m.fill(6)
	if m.probe(4) {
		t.Error("line 4 should be the LRU victim after 2 was refreshed")
	}
	if !m.probe(2) {
		t.Error("refreshed line 2 was evicted")
	}
	// Set 1 is untouched throughout.
	if m.probe(1) {
		t.Error("set 1 should be empty")
	}
}

// TestL0Model pins the op-capacity buffer: LRU eviction until an insert
// fits, oversized blocks never cached, re-insert refreshes recency.
func TestL0Model(t *testing.T) {
	m := newL0Model(10)
	m.insert(1, 4)
	m.insert(2, 4)
	if !m.lookup(1) || !m.lookup(2) {
		t.Fatal("inserted blocks not resident")
	}
	m.insert(3, 11) // larger than the whole buffer
	if m.lookup(3) {
		t.Error("oversized block cached")
	}
	// 1 was looked up after 2, so inserting 4 ops evicts block 2.
	m.lookup(1)
	m.insert(4, 4)
	if m.lookup(2) {
		t.Error("block 2 should be the LRU victim")
	}
	if !m.lookup(1) || !m.lookup(4) {
		t.Error("blocks 1 and 4 should be resident")
	}
	if m.used != 8 {
		t.Errorf("used = %d ops, want 8", m.used)
	}
}

// TestDiffFieldCoverage guards the oracle diff against silently losing
// counters: every comparable int64 field of cache.Result must show up
// when perturbed.
func TestDiffFieldCoverage(t *testing.T) {
	base := cache.Result{}
	perturbed := cache.Result{
		Cycles: 1, Ops: 2, MOPs: 3,
		BlockFetches: 4, CacheLookups: 5, CacheMisses: 6,
		LinesFetched: 7, BufferHits: 8, Mispredicts: 9,
		BusBeats: 10, BytesFetched: 11,
	}
	diffs := Diff(perturbed, base)
	if len(diffs) != 11 {
		t.Fatalf("Diff reported %d mismatches, want all 11 modeled counters", len(diffs))
	}
	seen := map[string]bool{}
	for _, d := range diffs {
		seen[d.Field] = true
	}
	for _, f := range []string{"Cycles", "BusBeats", "BytesFetched", "LinesFetched"} {
		if !seen[f] {
			t.Errorf("Diff does not cover %s", f)
		}
	}
}
