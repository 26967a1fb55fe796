// Package lru is a recency list over dense integer IDs: the residency
// order shared by the simulator's small fully-associative structures
// (the ATB's ATT entries and the §4 L0 buffer). IDs are block numbers
// in [0, n), so the list is two link arrays indexed by ID plus one
// sentinel slot; every operation is O(1) and none allocates after New.
// Capacity policy (how many entries, what to evict) stays with the
// caller, which reads the LRU end with Back and evicts with Remove.
package lru

// List is a doubly linked MRU-to-LRU order over IDs in [0, n), linked
// by array index. Slot n is the sentinel: next[n] is the MRU ID and
// prev[n] the LRU ID (both n when empty). A non-resident ID has
// prev == -1.
type List struct {
	prev []int32
	next []int32
	len  int
}

// New returns an empty list over IDs [0, n). n must fit in an int32.
func New(n int) *List {
	l := &List{prev: make([]int32, n+1), next: make([]int32, n+1)}
	for i := range l.prev {
		l.prev[i] = -1
	}
	l.prev[n], l.next[n] = int32(n), int32(n)
	return l
}

// Size returns the ID range n.
//
//tepic:hotpath
func (l *List) Size() int { return len(l.prev) - 1 }

// Len returns the number of resident IDs.
//
//tepic:hotpath
func (l *List) Len() int { return l.len }

// Contains reports whether id is resident. IDs outside [0, n) never are.
//
//tepic:hotpath
func (l *List) Contains(id int) bool {
	return uint(id) < uint(l.Size()) && l.prev[id] >= 0
}

// Touch moves a resident id to the MRU end and reports whether it was
// resident; a non-resident (or out-of-range) id is left alone.
//
//tepic:hotpath
func (l *List) Touch(id int) bool {
	if !l.Contains(id) {
		return false
	}
	l.unlink(int32(id))
	l.linkFront(int32(id))
	return true
}

// PushFront makes a non-resident id in [0, n) the MRU entry.
//
//tepic:hotpath
func (l *List) PushFront(id int) {
	l.linkFront(int32(id))
	l.len++
}

// Back returns the LRU id, or -1 when the list is empty.
//
//tepic:hotpath
func (l *List) Back() int {
	if l.len == 0 {
		return -1
	}
	return int(l.prev[l.Size()])
}

// Remove drops a resident id from the list.
//
//tepic:hotpath
func (l *List) Remove(id int) {
	l.unlink(int32(id))
	l.prev[id] = -1
	l.len--
}

//tepic:hotpath
func (l *List) unlink(id int32) {
	p, n := l.prev[id], l.next[id]
	l.next[p] = n
	l.prev[n] = p
}

//tepic:hotpath
func (l *List) linkFront(id int32) {
	s := int32(l.Size())
	first := l.next[s]
	l.prev[id], l.next[id] = s, first
	l.prev[first] = id
	l.next[s] = id
}
