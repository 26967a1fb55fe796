package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/scheme"
	"repro/internal/serve"
	"repro/internal/simcheck"
)

// replayOps is the dynamic-operation horizon of every streamed request.
const replayOps = 10_000_000

// replayWarmOps is the horizon of the set-up requests, which only build
// each pairing's images and open the connection.
const replayWarmOps = 100_000

// minPasses is the fewest timed passes a replay run makes.
const minPasses = 3

// replaySetups is how many times a replay run sets up; the reported
// setup_s is the median.
const replaySetups = 5

// replayPoint is one request of the replay sequence.
type replayPoint struct{ Bench, Pairing string }

func (p replayPoint) String() string { return p.Bench + "." + p.Pairing }

// replayPoints is the fixed sequence: a program that misses in the
// cache (gcc) and one that fits (compress), under every pairing.
var replayPoints = func() []replayPoint {
	var out []replayPoint
	for _, b := range []string{"gcc", "compress"} {
		for _, p := range []string{"Base", "Compressed", "Tailored", "CodePack"} {
			out = append(out, replayPoint{b, p})
		}
	}
	return out
}()

func streamRequest(p replayPoint, ops int64) []byte {
	return mustJSON(serve.SimulateRequest{Benchmark: p.Bench, Pairing: p.Pairing, Stream: true, Ops: ops})
}

// replaySetup boots a daemon and sends every point once at a short
// horizon, so the timed phase builds nothing.
func replaySetup(wrapTr *tracer) (*daemon, error) {
	d, err := startDaemon(1, handlerWrapper(wrapTr))
	if err != nil {
		return nil, err
	}
	for _, p := range replayPoints {
		var resp serve.SimulateResponse
		if err := d.post("/v1/simulate", streamRequest(p, replayWarmOps), &resp, nil); err != nil {
			return nil, errors.Join(fmt.Errorf("warm %s: %w", p, err), d.stop())
		}
	}
	return d, nil
}

// replayPass sends the sequence once, one request at a time, and
// returns each reply and its round-trip time.
func replayPass(d *daemon, tr *tracer, parent int32, reqBase int64) ([]serve.SimulateResponse, []time.Duration, error) {
	resps := make([]serve.SimulateResponse, len(replayPoints))
	times := make([]time.Duration, len(replayPoints))
	for i, p := range replayPoints {
		req := reqBase + int64(i)
		id := tr.begin("http", parent, req)
		t0 := time.Now()
		err := d.post("/v1/simulate", streamRequest(p, replayOps), &resps[i], spanHeader(id, req))
		times[i] = time.Since(t0)
		tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return resps, times, nil
}

// resultOf rebuilds the simulator counters a reply carries.
func resultOf(r serve.SimulateResponse) cache.Result {
	return cache.Result{
		Cycles: r.Cycles, Ops: r.Ops, MOPs: r.MOPs,
		BlockFetches: r.BlockFetches, CacheLookups: r.CacheLookups, CacheMisses: r.CacheMisses,
		LinesFetched: r.LinesFetched, BufferHits: r.BufferHits, Mispredicts: r.Mispredicts,
		BusBeats: r.BusBeats, BitFlips: r.BitFlips, BytesFetched: r.BytesFetched,
		ATBHitRate: r.ATBHitRate,
	}
}

// pairingImages returns a pairing's cache image and, for organizations
// that fetch from a separate ROM, its ROM image.
func pairingImages(c *core.Compiled, p scheme.Pairing) (im, rom *image.Image, err error) {
	if im, err = c.Image(p.CacheScheme); err != nil {
		return nil, nil, err
	}
	if p.ROMScheme != "" {
		if rom, err = c.Image(p.ROMScheme); err != nil {
			return nil, nil, err
		}
	}
	return im, rom, nil
}

// streamOracle computes what a streamed request for p at horizon ops
// must report, through the analytical model on a driver of its own.
// supported is false for pairings outside the model.
func streamOracle(d *core.Driver, p replayPoint, ops int64) (want cache.Result, supported bool, err error) {
	pr, ok := scheme.PairingByName(p.Pairing)
	if !ok {
		return cache.Result{}, false, fmt.Errorf("unknown pairing %q", p.Pairing)
	}
	c, err := d.CompileBenchmark(p.Bench)
	if err != nil {
		return cache.Result{}, false, err
	}
	im, rom, err := pairingImages(c, pr)
	if err != nil {
		return cache.Result{}, false, err
	}
	st, err := c.StreamTraceOps(ops, 0)
	if err != nil {
		return cache.Result{}, false, err
	}
	want, err = simcheck.ExpectedStream(pr.Org, cache.DefaultConfig(pr.Org), im, rom, c.Prog, st)
	if errors.Is(err, simcheck.ErrUnsupported) {
		return cache.Result{}, false, nil
	}
	return want, err == nil, err
}

// checkReplay compares every reply with the first reply for its point
// (the counters must repeat exactly) and the first with the oracle. It
// returns how many replies were wrong and a line per problem.
func checkReplay(passes [][]serve.SimulateResponse) (int64, []string, error) {
	if len(passes) == 0 {
		return 0, nil, nil
	}
	var wrong int64
	var problems []string
	oracle := core.NewDriver(0)
	for i, p := range replayPoints {
		first := passes[0][i]
		for k, pass := range passes {
			if pass[i] != first {
				wrong++
				problems = append(problems, fmt.Sprintf("replay %s pass %d: reply differs from pass 0", p, k))
			}
		}
		want, supported, err := streamOracle(oracle, p, replayOps)
		if err != nil {
			return 0, nil, fmt.Errorf("oracle %s: %w", p, err)
		}
		if !supported {
			continue
		}
		if ms := simcheck.Diff(resultOf(first), want); len(ms) > 0 {
			wrong += int64(len(passes))
			problems = append(problems, fmt.Sprintf("replay %s: %d counters differ from the oracle, first %s got %d want %d",
				p, len(ms), ms[0].Field, ms[0].Got, ms[0].Want))
		}
	}
	return wrong, problems, nil
}

// runReplay sends the sequence in a closed loop with one client for
// the timed phase, then checks every reply against the oracle.
func runReplay(o options) (*outcome, error) {
	heap := startHeapSampler()
	d, setups, err := repeatSetup(replaySetups, func() (*daemon, error) { return replaySetup(nil) })
	if err != nil {
		heap.stopMB()
		return nil, err
	}
	oc := &outcome{Setups: setups}

	var passes [][]serve.SimulateResponse
	var passMS []float64
	var ops int64
	cpu0 := cpuTime()
	start := time.Now()
	for time.Since(start).Seconds() < o.seconds || len(passes) < minPasses {
		resps, times, err := replayPass(d, nil, 0, 0)
		if err != nil {
			heap.stopMB()
			return nil, errors.Join(err, d.stop())
		}
		total := time.Duration(0)
		for i, r := range resps {
			total += times[i]
			ops += r.Ops
		}
		passes = append(passes, resps)
		passMS = append(passMS, ms(total))
	}
	elapsed := time.Since(start).Seconds()
	oc.CPUMS = ms(cpuTime()-cpu0) / float64(len(passes))
	oc.HeapMB = heap.stopMB()
	if err := d.stop(); err != nil {
		return nil, err
	}

	oc.Attempted = int64(len(passes) * len(replayPoints))
	wrong, problems, err := checkReplay(passes)
	if err != nil {
		return nil, err
	}
	oc.Failed, oc.Problems = wrong, problems
	oc.Named = append(oc.Named,
		named{Name: "sim_mops", Value: float64(ops) / elapsed / 1e6, Unit: "Mops/s",
			Note: fmt.Sprintf("%d passes of %d requests at %d ops", len(passes), len(replayPoints), replayOps)},
		named{Name: "pass_ms", Value: median(passMS), Unit: "ms", Note: "median pass"})
	return oc, nil
}
