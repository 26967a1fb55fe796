package core

import (
	"container/list"
	"sync"

	"repro/internal/stats"
)

// artifactStore is the driver's content-addressed artifact cache grown
// into service shape: bounded (an optional exact entry capacity) and
// LRU-evicting (an insert over capacity drops the least recently used
// completed entry), with one map and one container/list recency order
// under one mutex. Each entry keeps the single-flight discipline of the
// original flat map: the first requester of a key builds while every later
// requester blocks on done and shares the result, so one build happens
// per resident key no matter how many requests race for it. Failed
// builds are cached like successes — the inputs are content-hashed, so
// retrying cannot succeed — until eviction recycles the slot. The lock
// covers only map and list updates, never a build.
//
// Traffic lands in the registry's counters: "artifact.hit" (request
// served by a resident or in-flight entry), "artifact.miss" (request
// that triggered a build) and "artifact.eviction" (completed entries
// dropped by the bound). hits + misses always equals the number of
// requests.
type artifactStore struct {
	obs      *stats.Registry
	mu       sync.Mutex
	capacity int // max entries; <= 0 = unbounded
	entries  map[string]*storeEntry
	lru      list.List // of *storeEntry, most recently used at the front
}

// storeEntry is one single-flight artifact build with its place in the
// recency list.
type storeEntry struct {
	key      string
	done     chan struct{}
	val      any
	err      error
	building bool
	elem     *list.Element
}

// newArtifactStore builds a store holding at most capacity entries
// (<= 0 means unbounded — the batch driver's shape).
func newArtifactStore(capacity int, obs *stats.Registry) *artifactStore {
	return &artifactStore{obs: obs, capacity: capacity, entries: map[string]*storeEntry{}}
}

// do returns the artifact stored under key, building it with build on
// first request. Concurrent requests for one key are deduplicated: one
// goroutine builds, the rest wait on the entry. When the insert pushes
// the store over capacity, completed entries are evicted in LRU order
// (in-flight builds are never evicted — their waiters hold the entry);
// an evicted key rebuilds on its next request.
func (st *artifactStore) do(key string, build func() (any, error)) (any, error) {
	st.mu.Lock()
	if e, ok := st.entries[key]; ok {
		st.lru.MoveToFront(e.elem)
		st.mu.Unlock()
		st.obs.Counter("artifact.hit").Add(1)
		<-e.done
		return e.val, e.err
	}
	e := &storeEntry{key: key, done: make(chan struct{}), building: true}
	st.entries[key] = e
	e.elem = st.lru.PushFront(e)
	evicted := st.evictOver()
	st.mu.Unlock()
	st.obs.Counter("artifact.miss").Add(1)
	if evicted > 0 {
		st.obs.Counter("artifact.eviction").Add(int64(evicted))
	}
	e.val, e.err = build()
	st.mu.Lock()
	e.building = false
	// Builds in flight at insert time could not be evicted then; the
	// store sheds that overshoot as soon as a build completes.
	evicted = st.evictOver()
	st.mu.Unlock()
	if evicted > 0 {
		st.obs.Counter("artifact.eviction").Add(int64(evicted))
	}
	close(e.done)
	return e.val, e.err
}

// len returns the resident entry count, in-flight builds included.
func (st *artifactStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}

// evictOver drops completed entries from the LRU end until the store
// is within capacity, returning how many were evicted. In-flight builds
// are skipped, so a burst of concurrent first requests may transiently
// hold the store over capacity by the number of builds in flight —
// memory stays bounded by capacity + the builds in flight (at most the
// driver's worker count plus the nested requests each build makes), and
// each completing build evicts again, so the store is back within
// capacity once its builds finish. Caller holds st.mu.
func (st *artifactStore) evictOver() int {
	if st.capacity <= 0 {
		return 0
	}
	evicted := 0
	for el := st.lru.Back(); el != nil && len(st.entries) > st.capacity; {
		victim := el
		el = el.Prev()
		if e := victim.Value.(*storeEntry); !e.building {
			st.lru.Remove(victim)
			delete(st.entries, e.key)
			evicted++
		}
	}
	return evicted
}
