package lru

import (
	"math/rand"
	"testing"
)

// TestListAgainstSlice drives List and a naive MRU-first slice with the
// same random Touch/PushFront/Remove stream and compares the full order
// after every call.
func TestListAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 64} {
		l := New(n)
		var ref []int // MRU first
		find := func(id int) int {
			for i, x := range ref {
				if x == id {
					return i
				}
			}
			return -1
		}
		for op := 0; op < 5000; op++ {
			id := rng.Intn(n+2) - 1 // includes -1 and n: out of range
			inRange := id >= 0 && id < n
			switch rng.Intn(3) {
			case 0:
				i := find(id)
				if got := l.Touch(id); got != (i >= 0) {
					t.Fatalf("n=%d op %d: Touch(%d) = %v, oracle %v", n, op, id, got, i >= 0)
				}
				if i >= 0 {
					copy(ref[1:i+1], ref[:i])
					ref[0] = id
				}
			case 1:
				if inRange && find(id) < 0 {
					l.PushFront(id)
					ref = append([]int{id}, ref...)
				}
			case 2:
				if back := l.Back(); back >= 0 {
					l.Remove(back)
					ref = ref[:len(ref)-1]
				}
			}
			if l.Len() != len(ref) {
				t.Fatalf("n=%d op %d: Len %d, oracle %d", n, op, l.Len(), len(ref))
			}
			want := -1
			if len(ref) > 0 {
				want = ref[len(ref)-1]
			}
			if got := l.Back(); got != want {
				t.Fatalf("n=%d op %d: Back %d, oracle %d", n, op, got, want)
			}
			for x := -1; x <= n; x++ {
				if l.Contains(x) != (find(x) >= 0) {
					t.Fatalf("n=%d op %d: Contains(%d) = %v", n, op, x, l.Contains(x))
				}
			}
		}
	}
}

func TestListZeroAlloc(t *testing.T) {
	l := New(16)
	allocs := testing.AllocsPerRun(100, func() {
		for id := 0; id < 16; id++ {
			if !l.Touch(id) {
				l.PushFront(id)
			}
		}
		for l.Len() > 8 {
			l.Remove(l.Back())
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per run, want 0", allocs)
	}
}
