package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/scheme"
	"repro/internal/stats"
)

// TestStoreSingleFlight hammers a store with 64 goroutines over
// a key set the capacity fully holds, asserting the single-flight
// contract: exactly one build per content key no matter how many
// requests race for it, every request resolved to the built value, and
// the hit/miss counters accounting for every request exactly once.
func TestStoreSingleFlight(t *testing.T) {
	const (
		goroutines = 64
		perG       = 100
		keys       = 16
	)
	obs := stats.NewRegistry()
	st := newArtifactStore(4*keys, obs)
	var builds atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("k%d", (g+i)%keys)
				v, err := st.do(key, func() (any, error) {
					builds.Add(1)
					return "val:" + key, nil
				})
				if err != nil {
					errs[g] = err
					return
				}
				if v != "val:"+key {
					errs[g] = fmt.Errorf("key %s resolved to %v", key, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if got := builds.Load(); got != keys {
		t.Errorf("builds = %d, want %d (one per key)", got, keys)
	}
	hits := obs.Counter("artifact.hit").Value()
	misses := obs.Counter("artifact.miss").Value()
	if hits+misses != goroutines*perG {
		t.Errorf("hits (%d) + misses (%d) = %d, want %d requests",
			hits, misses, hits+misses, goroutines*perG)
	}
	if misses != keys {
		t.Errorf("misses = %d, want %d (every non-first request a hit)", misses, keys)
	}
	if ev := obs.Counter("artifact.eviction").Value(); ev != 0 {
		t.Errorf("evictions = %d, want 0 under capacity", ev)
	}
}

// TestStoreBoundedEviction forces evictions: 64 goroutines over a key
// space eight times the store's capacity. Memory must stay
// bounded (resident entries never exceed capacity plus the in-flight
// build count), counters must stay consistent (hits + misses ==
// requests; one build per miss; evictions <= misses), and the store
// must keep serving correct values throughout.
func TestStoreBoundedEviction(t *testing.T) {
	const (
		goroutines = 64
		perG       = 200
		keys       = 64
		capacity   = 8
	)
	obs := stats.NewRegistry()
	st := newArtifactStore(capacity, obs)
	var builds atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%keys)
				v, err := st.do(key, func() (any, error) {
					builds.Add(1)
					return "val:" + key, nil
				})
				if err != nil {
					errs[g] = err
					return
				}
				if v != "val:"+key {
					errs[g] = fmt.Errorf("key %s resolved to %v", key, v)
					return
				}
				// The bound: capacity entries plus at most one in-flight
				// build per goroutine. Checked from inside the storm so a
				// transient blow-up cannot hide behind the final drain.
				if n := st.len(); n > capacity+goroutines {
					errs[g] = fmt.Errorf("store grew to %d entries (cap %d, %d goroutines)",
						n, capacity, goroutines)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	hits := obs.Counter("artifact.hit").Value()
	misses := obs.Counter("artifact.miss").Value()
	evictions := obs.Counter("artifact.eviction").Value()
	if hits+misses != goroutines*perG {
		t.Errorf("hits (%d) + misses (%d) = %d, want %d requests",
			hits, misses, hits+misses, goroutines*perG)
	}
	if got := builds.Load(); got != misses {
		t.Errorf("builds = %d, want %d (one per miss)", got, misses)
	}
	if misses < keys {
		t.Errorf("misses = %d, want >= %d (every key built at least once)", misses, keys)
	}
	if evictions == 0 {
		t.Error("no evictions despite key space 8x capacity")
	}
	if evictions > misses {
		t.Errorf("evictions (%d) > misses (%d): evicted entries that were never built", evictions, misses)
	}
	if n := st.len(); n > capacity {
		t.Errorf("store settled at %d entries, want <= capacity %d", n, capacity)
	}
}

// TestStoreLRUOrder pins the eviction policy: the least recently *used*
// entry goes first, not the least recently inserted, and a store of
// capacity n holds exactly the n most recently used keys of a longer
// sequence.
func TestStoreLRUOrder(t *testing.T) {
	obs := stats.NewRegistry()
	st := newArtifactStore(2, obs)
	builds := map[string]int{}
	get := func(key string) {
		t.Helper()
		if _, err := st.do(key, func() (any, error) {
			builds[key]++
			return key, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // refresh a: b is now LRU
	get("c") // evicts b
	if got := obs.Counter("artifact.eviction").Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	get("a") // still resident
	get("b") // rebuilds
	if builds["a"] != 1 {
		t.Errorf("a built %d times, want 1 (refreshed, never evicted)", builds["a"])
	}
	if builds["b"] != 2 {
		t.Errorf("b built %d times, want 2 (evicted as LRU)", builds["b"])
	}
	if builds["c"] != 1 {
		t.Errorf("c built %d times, want 1", builds["c"])
	}

	const capacity, keys = 3, 16
	st = newArtifactStore(capacity, stats.NewRegistry())
	for i := 0; i < keys; i++ {
		if _, err := st.do(fmt.Sprint(i), func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.len(); n != capacity {
		t.Errorf("%d entries resident after %d keys, want exactly capacity %d", n, keys, capacity)
	}
	for i := 0; i < keys; i++ {
		if want := i >= keys-capacity; st.resident(fmt.Sprint(i)) != want {
			t.Errorf("key %d resident = %v, want %v (only the %d most recent stay)", i, !want, want, capacity)
		}
	}
}

// TestStoreCachesFailedBuilds keeps the pre-service contract: a failed
// build is cached (content-hashed inputs cannot succeed on retry), so
// the second request for a poisoned key is a hit, not a rebuild.
func TestStoreCachesFailedBuilds(t *testing.T) {
	obs := stats.NewRegistry()
	st := newArtifactStore(0, obs)
	calls := 0
	fail := func() (any, error) { calls++; return nil, fmt.Errorf("boom %d", calls) }
	_, err1 := st.do("bad", fail)
	_, err2 := st.do("bad", fail)
	if err1 == nil || err2 == nil {
		t.Fatalf("errors = %v, %v; want both non-nil", err1, err2)
	}
	if err1 != err2 {
		t.Errorf("second request got a different error: %v vs %v", err1, err2)
	}
	if calls != 1 {
		t.Errorf("build ran %d times, want 1", calls)
	}
}

// resident reports whether key currently has an entry in the store.
func (st *artifactStore) resident(key string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.entries[key]
	return ok
}

// TestDriverBoundedCache exercises the bound through the Driver face:
// a driver with a small capacity builds every scheme's image, holds no
// more than its capacity after every top-level request, and rebuilds an
// image the bound evicted. An image build requests only its encoder, so
// the first pass builds each image and encoder exactly once however
// small the store, and the hit/miss counters account every request the
// builders make exactly once.
func TestDriverBoundedCache(t *testing.T) {
	for _, capacity := range []int{1, 3} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			testDriverBoundedCache(t, capacity)
		})
	}
}

func testDriverBoundedCache(t *testing.T, capacity int) {
	d := NewDriverWithCache(2, capacity)
	c, err := d.CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	schemes := SchemeNames()
	imageCalls := int64(0)
	requestImage := func(name string) {
		t.Helper()
		imageCalls++
		if _, err := c.Image(name); err != nil {
			t.Fatal(err)
		}
		if n := d.CacheEntries(); n > capacity {
			t.Fatalf("after Image(%s): %d resident entries, capacity %d", name, n, capacity)
		}
	}
	for _, name := range schemes {
		requestImage(name)
	}
	stages := d.Stats().Snapshot().Stages
	for _, stage := range []string{"image." + scheme.BaseName, "encode." + scheme.BaseName} {
		if n := stages[stage].Count; n != 1 {
			t.Errorf("%s built %d times, want 1", stage, n)
		}
	}
	// The compile, then one image and one encoder per scheme.
	if misses, want := d.Stats().Counter("artifact.miss").Value(), int64(1+2*len(schemes)); misses != want {
		t.Errorf("misses after one pass = %d, want %d", misses, want)
	}

	// More artifacts were built than fit, so some image was evicted.
	evicted := ""
	for _, name := range schemes {
		if !d.store.resident(c.imageKey(name)) {
			evicted = name
			break
		}
	}
	if evicted == "" {
		t.Fatalf("every image still resident in a %d-entry store", capacity)
	}
	before := stages["image."+evicted].Count
	requestImage(evicted)
	stages = d.Stats().Snapshot().Stages
	if n := stages["image."+evicted].Count; n != before+1 {
		t.Errorf("image.%s built %d times, want %d (evicted, then requested again)", evicted, n, before+1)
	}

	// Every build is one miss. Every request is the compile above, an
	// image call, or an image build's request for its encoder.
	builds, requests := int64(1), int64(1)+imageCalls
	for _, name := range schemes {
		imgs := stages["image."+name].Count
		builds += imgs + stages["encode."+name].Count
		requests += imgs
	}
	hits := d.Stats().Counter("artifact.hit").Value()
	misses := d.Stats().Counter("artifact.miss").Value()
	if misses != builds {
		t.Errorf("misses = %d, want %d (one per build)", misses, builds)
	}
	if hits+misses != requests {
		t.Errorf("hits (%d) + misses (%d) = %d, want %d requests", hits, misses, hits+misses, requests)
	}
}
