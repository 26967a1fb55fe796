package cache

import (
	"fmt"

	"repro/internal/lru"
)

// LineCache is a set-associative instruction cache with true-LRU
// replacement, modeled at memory-line granularity. The paper's Banked
// Cache splits storage into two banks so a MOP spanning a line boundary
// is fetched in one reference; at block granularity that is a timing
// property (already folded into Table 1), so the capacity/conflict
// behavior modeled here is what distinguishes the schemes.
type LineCache struct {
	sets      int
	assoc     int
	lineBytes int
	tags      [][]int64 // tags[set][way]; -1 = invalid; way 0 = MRU
}

// NewLineCache builds a cache with the given geometry.
func NewLineCache(sets, assoc, lineBytes int) (*LineCache, error) {
	if sets < 1 || assoc < 1 || lineBytes < 1 {
		return nil, fmt.Errorf("%w: %d sets x %d ways x %dB", ErrBadGeometry, sets, assoc, lineBytes)
	}
	c := &LineCache{sets: sets, assoc: assoc, lineBytes: lineBytes}
	c.tags = make([][]int64, sets)
	for i := range c.tags {
		c.tags[i] = make([]int64, assoc)
		for j := range c.tags[i] {
			c.tags[i][j] = -1
		}
	}
	return c, nil
}

// CapacityBytes returns total storage.
func (c *LineCache) CapacityBytes() int { return c.sets * c.assoc * c.lineBytes }

// LineBytes returns the line size.
func (c *LineCache) LineBytes() int { return c.lineBytes }

// LineOf returns the line index containing a byte address.
func (c *LineCache) LineOf(addr int) int64 { return int64(addr / c.lineBytes) }

// Probe checks whether a line is resident, updating LRU on hit.
func (c *LineCache) Probe(line int64) bool {
	set := c.tags[int(line)%c.sets]
	for w, tag := range set {
		if tag == line {
			// Move to MRU.
			copy(set[1:w+1], set[:w])
			set[0] = line
			return true
		}
	}
	return false
}

// Fill installs a line as MRU, evicting the LRU way.
func (c *LineCache) Fill(line int64) {
	set := c.tags[int(line)%c.sets]
	for w, tag := range set {
		if tag == line {
			copy(set[1:w+1], set[:w])
			set[0] = line
			return
		}
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line
}

// Flush invalidates the whole cache.
func (c *LineCache) Flush() {
	for i := range c.tags {
		for j := range c.tags[i] {
			c.tags[i][j] = -1
		}
	}
}

// L0Buffer is the small fully-associative buffer of §4 that holds the
// most recently decompressed blocks, measured in operations (the paper
// sizes it at 32 op entries, 160 bytes). Blocks larger than the buffer
// never hit. Residency is an LRU over the program's dense block IDs,
// sized once at construction, so lookups and inserts never allocate.
type L0Buffer struct {
	capOps   int
	used     int
	resident *lru.List
	ops      []int // block ID -> op count, valid while resident
}

// NewL0Buffer returns a buffer holding up to capOps operations of a
// program with numBlocks blocks.
func NewL0Buffer(capOps, numBlocks int) *L0Buffer {
	return &L0Buffer{capOps: capOps, resident: lru.New(numBlocks), ops: make([]int, numBlocks)}
}

// CapacityOps returns the buffer size in operations.
func (b *L0Buffer) CapacityOps() int { return b.capOps }

// Lookup reports whether a block's decompressed MOPs are resident,
// updating recency on hit.
func (b *L0Buffer) Lookup(block int) bool { return b.resident.Touch(block) }

// Insert places a freshly decompressed block in the buffer, evicting LRU
// blocks until it fits. Blocks that exceed the whole buffer, and blocks
// outside the program, are not cached.
func (b *L0Buffer) Insert(block, numOps int) {
	if numOps > b.capOps || block < 0 || block >= len(b.ops) {
		return
	}
	if b.resident.Touch(block) { // refresh recency
		return
	}
	for b.used+numOps > b.capOps && b.resident.Len() > 0 {
		victim := b.resident.Back()
		b.resident.Remove(victim)
		b.used -= b.ops[victim]
	}
	b.resident.PushFront(block)
	b.ops[block] = numOps
	b.used += numOps
}

// UsedOps returns the operations currently buffered.
func (b *L0Buffer) UsedOps() int { return b.used }
