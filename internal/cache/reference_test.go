package cache

import (
	"math/rand"
	"testing"
)

// refLRU is a deliberately naive set-associative LRU cache used as the
// oracle for LineCache's packed implementation.
type refLRU struct {
	sets  int
	assoc int
	data  map[int][]int64 // set -> lines, MRU first
}

func newRefLRU(sets, assoc int) *refLRU {
	return &refLRU{sets: sets, assoc: assoc, data: map[int][]int64{}}
}

func (r *refLRU) probe(line int64) bool {
	set := int(line) % r.sets
	lines := r.data[set]
	for i, l := range lines {
		if l == line {
			copy(lines[1:i+1], lines[:i])
			lines[0] = line
			return true
		}
	}
	return false
}

func (r *refLRU) fill(line int64) {
	set := int(line) % r.sets
	if r.probe(line) {
		return
	}
	lines := r.data[set]
	if len(lines) >= r.assoc {
		lines = lines[:r.assoc-1]
	}
	r.data[set] = append([]int64{line}, lines...)
}

// TestLineCacheAgainstReference drives LineCache and the oracle with the
// same random probe/fill stream and demands identical hit/miss behavior.
func TestLineCacheAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		sets := 1 << uint(rng.Intn(5)) // 1..16
		assoc := 1 + rng.Intn(4)       // 1..4
		space := int64(sets*assoc) * 3 // enough conflict pressure
		c, err := NewLineCache(sets, assoc, 32)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefLRU(sets, assoc)
		for op := 0; op < 5000; op++ {
			line := rng.Int63n(space)
			if rng.Intn(2) == 0 {
				got := c.Probe(line)
				want := ref.probe(line)
				if got != want {
					t.Fatalf("trial %d op %d: Probe(%d) = %v, oracle %v (sets=%d assoc=%d)",
						trial, op, line, got, want, sets, assoc)
				}
			} else {
				c.Fill(line)
				ref.fill(line)
			}
		}
	}
}

// TestL0AgainstReference drives the L0 buffer against a naive oracle.
// Odd trials draw their 30 live blocks from a 10k-block program, so the
// dense-ID residency list is exercised far from ID 0; one insert in
// eight carries zero ops, which occupies an entry but no capacity.
func TestL0AgainstReference(t *testing.T) {
	type entry struct {
		block, ops int
	}
	const numBlocks = 10000
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 20; trial++ {
		capOps := 8 + rng.Intn(64)
		buf := NewL0Buffer(capOps, numBlocks)
		ids := make([]int, 30)
		for i := range ids {
			ids[i] = i
			if trial%2 == 1 {
				ids[i] = rng.Intn(numBlocks)
			}
		}
		var ref []entry // MRU first
		used := 0
		lookup := func(b int) bool {
			for i, e := range ref {
				if e.block == b {
					copy(ref[1:i+1], ref[:i])
					ref[0] = e
					return true
				}
			}
			return false
		}
		insert := func(b, ops int) {
			if ops > capOps {
				return
			}
			if lookup(b) {
				return
			}
			for used+ops > capOps && len(ref) > 0 {
				victim := ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				used -= victim.ops
			}
			ref = append([]entry{{b, ops}}, ref...)
			used += ops
		}
		for op := 0; op < 3000; op++ {
			b := ids[rng.Intn(len(ids))]
			if rng.Intn(2) == 0 {
				got, want := buf.Lookup(b), lookup(b)
				if got != want {
					t.Fatalf("trial %d op %d: Lookup(%d) = %v, oracle %v (cap=%d)",
						trial, op, b, got, want, capOps)
				}
			} else {
				ops := 1 + rng.Intn(capOps+4)
				if rng.Intn(8) == 0 {
					ops = 0
				}
				buf.Insert(b, ops)
				insert(b, ops)
			}
			if buf.UsedOps() != used {
				t.Fatalf("trial %d op %d: used %d, oracle %d", trial, op, buf.UsedOps(), used)
			}
			if l0 := buf.resident.Len(); l0 != len(ref) {
				t.Fatalf("trial %d op %d: %d resident blocks, oracle %d", trial, op, l0, len(ref))
			}
		}
	}
}
