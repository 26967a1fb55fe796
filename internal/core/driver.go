package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Driver is the concurrent compilation driver: a bounded worker pool
// that fans out over (benchmark, encoding-scheme) build jobs, backed by
// a content-addressed artifact store. Every artifact — compiled
// program, encoder (Huffman tables / tailored dictionary), image with
// ATT, stochastic trace — is keyed by a hash of its exact inputs
// (program content, scheme configuration, cache version; see key.go),
// built once under single-flight, and shared by every job that asks for
// it. The store is optionally bounded with LRU eviction (see
// store.go), and it is the only place artifacts are held — a
// Compiled keeps none of its own — so a long-running service driver
// holds steady memory under skewed traffic. Stage latencies and cache
// traffic are recorded in a stats.Registry so drivers of the driver
// (tepicbench, tepiccc, tepicd) can export them.
//
// All methods are safe for concurrent use.
type Driver struct {
	workers int
	obs     *stats.Registry
	sem     chan struct{}
	store   *artifactStore
}

// NewDriver returns a driver with the given worker-pool width; width <= 0
// selects GOMAXPROCS. The artifact store is unbounded — the right shape
// for batch runs that want every figure's artifacts resident.
func NewDriver(workers int) *Driver {
	return NewDriverWithCache(workers, 0)
}

// NewDriverWithCache returns a driver whose artifact store holds at
// most capacity completed entries once its builds finish (<= 0 means
// unbounded). Service drivers (tepicd) bound the store so a long tail
// of cold programs cannot grow memory without limit; the hot set stays
// resident under LRU.
func NewDriverWithCache(workers, capacity int) *Driver {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	obs := stats.NewRegistry()
	return &Driver{
		workers: workers,
		obs:     obs,
		sem:     make(chan struct{}, workers),
		store:   newArtifactStore(capacity, obs),
	}
}

// Workers returns the worker-pool width.
func (d *Driver) Workers() int { return d.workers }

// Stats returns the driver's observability registry: stage timers
// ("compile.generate", "encode.full", "image.base", ...) and counters
// ("artifact.hit", "artifact.miss", "bytes.base", "bytes.encoded").
func (d *Driver) Stats() *stats.Registry { return d.obs }

// CacheHitRate returns hits / (hits + misses) over the driver's
// lifetime, or 0 before the first artifact request.
func (d *Driver) CacheHitRate() float64 {
	hits := d.obs.Counter("artifact.hit").Value()
	misses := d.obs.Counter("artifact.miss").Value()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// CacheEntries returns the number of artifacts currently resident in
// the store (in-flight builds included).
func (d *Driver) CacheEntries() int { return d.store.len() }

// memo returns the artifact stored under key, building it with build on
// first request. Concurrent requests for one key are deduplicated: one
// goroutine builds, the rest wait. A failed build is cached too — the
// inputs are content-hashed, so retrying cannot succeed. On a bounded
// store an evicted artifact rebuilds on its next request.
func (d *Driver) memo(key string, build func() (any, error)) (any, error) {
	return d.store.do(key, build)
}

// memoAs is the typed face of memo.
func memoAs[T any](d *Driver, key string, build func() (T, error)) (T, error) {
	v, err := d.memo(key, func() (any, error) { return build() })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// timed runs build and records its duration under the named stage.
func timed[T any](d *Driver, stage string, build func() (T, error)) (T, error) {
	start := time.Now()
	v, err := build()
	d.obs.Timer(stage).Observe(time.Since(start))
	return v, err
}

// mapN runs fn(0..n-1) on the worker pool and collects results in index
// order; the first error (by index) wins. Task functions may build
// artifacts — builds run on the caller's worker slot — but must not call
// mapN themselves, which could exhaust the pool with waiting parents.
//
//tepic:pool
func mapN[T any](d *Driver, n int, fn func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		d.sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-d.sem }()
			out[i], errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Compile pushes a workload profile through the compiler substrate,
// returning the cached compilation when the profile was seen before.
// The returned *Compiled is shared: all its artifact builders are safe
// for concurrent use and route through the driver's cache.
func (d *Driver) Compile(prof workload.Profile) (*Compiled, error) {
	return memoAs(d, profileKey(prof), func() (*Compiled, error) {
		p, err := timed(d, "compile.generate", func() (*ir.Program, error) {
			return workload.Generate(prof)
		})
		if err != nil {
			return nil, err
		}
		alloc, err := timed(d, "compile.regalloc", func() (regalloc.Result, error) {
			return regalloc.Allocate(p)
		})
		if err != nil {
			return nil, err
		}
		sp, err := timed(d, "compile.schedule", func() (*sched.Program, error) {
			return sched.Schedule(p)
		})
		if err != nil {
			return nil, err
		}
		c := newCompiled(d, p, sp, alloc)
		c.Profile = &prof
		return c, nil
	})
}

// CompileBenchmark compiles one of the eight benchmark stand-ins through
// the driver's cache.
func (d *Driver) CompileBenchmark(name string) (*Compiled, error) {
	prof, ok := workload.ProfileFor(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown benchmark %q", name)
	}
	return d.Compile(prof)
}

// Bind moves an independently compiled program (asm input,
// ScheduleOnly, CompileIR) from its private driver onto d, so its
// artifact builds share d's content-addressed cache and report stage
// timings there. Call it before requesting any artifact from c: the
// swap is not synchronized with concurrent builders. It returns c.
func (d *Driver) Bind(c *Compiled) *Compiled {
	c.drv = d
	return c
}

// Job names one (benchmark, scheme) point of the build matrix.
type Job struct {
	Benchmark string
	Scheme    string
}

// Built is one completed job: the shared compilation and the scheme's
// image (with ATT for non-base schemes).
type Built struct {
	Job      Job
	Compiled *Compiled
	Image    *image.Image
}

// CrossJobs builds the benchmarks × schemes job matrix in deterministic
// order. Nil selects the paper's eight benchmarks / every scheme.
func CrossJobs(benchmarks, schemes []string) []Job {
	if len(benchmarks) == 0 {
		benchmarks = workload.Benchmarks
	}
	if len(schemes) == 0 {
		schemes = SchemeNames()
	}
	jobs := make([]Job, 0, len(benchmarks)*len(schemes))
	for _, b := range benchmarks {
		for _, s := range schemes {
			jobs = append(jobs, Job{Benchmark: b, Scheme: s})
		}
	}
	return jobs
}

// BuildAll fans the job list out over the worker pool. Each benchmark
// compiles once and each (program, scheme) artifact builds once
// regardless of how many jobs share it; results come back in job order.
func (d *Driver) BuildAll(jobs []Job) ([]Built, error) {
	return mapN(d, len(jobs), func(i int) (Built, error) {
		c, err := d.CompileBenchmark(jobs[i].Benchmark)
		if err != nil {
			return Built{}, err
		}
		im, err := c.Image(jobs[i].Scheme)
		if err != nil {
			return Built{}, err
		}
		return Built{Job: jobs[i], Compiled: c, Image: im}, nil
	})
}
