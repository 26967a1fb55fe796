package core

import (
	"sync"

	"repro/internal/stats"
)

// artifactStore is the driver's content-addressed artifact cache grown
// into service shape: sharded (one lock per shard, keys spread by FNV-1a
// so concurrent request handlers do not serialize on one mutex), bounded
// (an optional total entry capacity split across shards) and
// LRU-evicting (an insert over capacity drops the shard's least recently
// used completed entry). Each entry keeps the single-flight discipline
// of the original flat map: the first requester of a key builds while
// every later requester blocks on done and shares the result, so one
// build happens per resident key no matter how many requests race for
// it. Failed builds are cached like successes — the inputs are
// content-hashed, so retrying cannot succeed — until eviction recycles
// the slot.
//
// Traffic lands in the registry's counters: "artifact.hit" (request
// served by a resident or in-flight entry), "artifact.miss" (request
// that triggered a build) and "artifact.eviction" (completed entries
// dropped by the bound). hits + misses always equals the number of
// requests.
type artifactStore struct {
	obs    *stats.Registry
	shards []storeShard
}

// storeShard is one lock domain: a key-to-entry map plus an intrusive
// LRU list (head = most recently used).
type storeShard struct {
	mu       sync.Mutex
	capacity int // max entries in this shard; 0 = unbounded
	entries  map[string]*storeEntry
	head     *storeEntry
	tail     *storeEntry
}

// storeEntry is one single-flight artifact build with its LRU links.
type storeEntry struct {
	key        string
	done       chan struct{}
	val        any
	err        error
	building   bool
	prev, next *storeEntry
}

// storeShards is the driver store's shard count: enough to keep a
// handful of concurrent request handlers off each other's locks without
// fragmenting tiny caches.
const storeShards = 8

// newArtifactStore builds a store with the given shard count and total
// entry capacity (<= 0 means unbounded — the batch driver's shape). The
// capacity is split evenly across shards, rounding up.
func newArtifactStore(shards, capacity int, obs *stats.Registry) *artifactStore {
	perShard := 0
	if capacity > 0 {
		perShard = (capacity + shards - 1) / shards
	}
	st := &artifactStore{obs: obs, shards: make([]storeShard, shards)}
	for i := range st.shards {
		st.shards[i].capacity = perShard
		st.shards[i].entries = map[string]*storeEntry{}
	}
	return st
}

// shardFor picks the key's shard by FNV-1a.
func (st *artifactStore) shardFor(key string) *storeShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &st.shards[h%uint64(len(st.shards))]
}

// do returns the artifact stored under key, building it with build on
// first request. Concurrent requests for one key are deduplicated: one
// goroutine builds, the rest wait on the entry. When the insert pushes
// the shard over capacity, completed entries are evicted in LRU order
// (in-flight builds are never evicted — their waiters hold the entry);
// an evicted key rebuilds on its next request.
func (st *artifactStore) do(key string, build func() (any, error)) (any, error) {
	sh := st.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.moveToFront(e)
		sh.mu.Unlock()
		st.obs.Counter("artifact.hit").Add(1)
		<-e.done
		return e.val, e.err
	}
	e := &storeEntry{key: key, done: make(chan struct{}), building: true}
	sh.entries[key] = e
	sh.pushFront(e)
	evicted := sh.evictOver()
	sh.mu.Unlock()
	st.obs.Counter("artifact.miss").Add(1)
	if evicted > 0 {
		st.obs.Counter("artifact.eviction").Add(int64(evicted))
	}
	e.val, e.err = build()
	sh.mu.Lock()
	e.building = false
	// Builds in flight at insert time could not be evicted then; the
	// shard sheds that overshoot as soon as a build completes.
	evicted = sh.evictOver()
	sh.mu.Unlock()
	if evicted > 0 {
		st.obs.Counter("artifact.eviction").Add(int64(evicted))
	}
	close(e.done)
	return e.val, e.err
}

// len returns the resident entry count across all shards.
func (st *artifactStore) len() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// pushFront links a new entry at the MRU end. Caller holds sh.mu.
func (sh *storeShard) pushFront(e *storeEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// unlink removes an entry from the LRU list. Caller holds sh.mu.
func (sh *storeShard) unlink(e *storeEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront marks an entry most recently used. Caller holds sh.mu.
func (sh *storeShard) moveToFront(e *storeEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// evictOver drops completed entries from the LRU end until the shard is
// within capacity, returning how many were evicted. In-flight builds
// are skipped, so a burst of concurrent first requests may transiently
// hold the shard over capacity by the number of builds in flight —
// memory stays bounded by capacity + the driver's worker count, and
// each completing build evicts again, so the shard is back within
// capacity once its builds finish. Caller holds sh.mu.
func (sh *storeShard) evictOver() int {
	if sh.capacity <= 0 {
		return 0
	}
	evicted := 0
	for e := sh.tail; e != nil && len(sh.entries) > sh.capacity; {
		victim := e
		e = e.prev
		if victim.building {
			continue
		}
		sh.unlink(victim)
		delete(sh.entries, victim.key)
		evicted++
	}
	return evicted
}
