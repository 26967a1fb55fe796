package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/scheme"
	"repro/internal/serve"
	"repro/internal/simcheck"
	"repro/internal/workload"
)

// The serve workload's traffic: an open loop over one client
// connection per CPU; programs by Zipf(serveSkew) popularity in the
// figure order (compress hottest), schemes uniform over serveSchemes,
// and six decodes, three encodes and one short non-stream simulate in
// every ten requests.
const (
	serveSkew       = 1.07
	serveSimBlocks  = 5000
	mixDecode       = 6
	mixEncode       = 3
	mixSimulate     = 1
	minPhaseSamples = 1100 // a p99 needs 10 samples beyond it
)

// The fixed rates in requests per second, and the p99 limit in ms that
// a phase must hold to count toward max_rps. The mix saturates at about
// 420 requests/s on a 2-CPU x86-64 host (Go 1.24); lowRate and highRate
// sit near 25% and 60% of that.
const (
	lowRate        = 105
	highRate       = 250
	latencyLimitMS = 200
)

// ladderRates are the rungs above highRate tried, in order, until one
// misses the limit.
var ladderRates = []float64{340, 380, 410, 440, 470}

// serveSchemes are the six encodings requests draw from.
var serveSchemes = []string{"base", "byte", "stream", "stream_1", "full", "tailored"}

// servePairings are the pairings simulate requests draw from.
var servePairings = []string{"Base", "Compressed", "Tailored", "CodePack"}

// serveReq is one scheduled request.
type serveReq struct {
	Kind  string // "decode", "encode" or "simulate"
	Bench string
	Name  string // scheme, or pairing for simulate
	Path  string
	Body  []byte
}

// serveReply is what the check needs from a reply.
type serveReply struct {
	Decode serve.DecodeResponse
	Encode serve.EncodeResponse
	Sim    serve.SimulateResponse
	Err    error
}

func makeServeReq(kind, bench, name string) serveReq {
	r := serveReq{Kind: kind, Bench: bench, Name: name, Path: "/v1/" + kind}
	switch kind {
	case "decode":
		r.Body = mustJSON(serve.DecodeRequest{Benchmark: bench, Scheme: name})
	case "encode":
		r.Body = mustJSON(serve.EncodeRequest{Benchmark: bench, Scheme: name})
	default:
		r.Body = mustJSON(serve.SimulateRequest{Benchmark: bench, Pairing: name, Blocks: serveSimBlocks})
	}
	return r
}

// dealRequests deals n requests for one phase from a deck of exact
// composition: kinds in the 6:3:1 mix, programs apportioned by the
// Zipf(serveSkew) weights within each kind, and schemes (pairings for
// simulate) spread evenly within each kind and program. The seed
// shuffles the deck and picks where each scheme cycle starts, so it
// drives the order in which requests arrive; the composition is the
// same for every seed, which keeps a phase's total work, and with it
// the service's capacity, from varying with the draw.
func dealRequests(seed int64, n int) []serveReq {
	rng := rand.New(rand.NewSource(seed))
	zipf := make([]float64, len(workload.Benchmarks))
	for r := range zipf {
		zipf[r] = 1 / math.Pow(float64(r+1), serveSkew)
	}
	kinds := []string{"decode", "encode", "simulate"}
	perKind := apportion(n, []float64{mixDecode, mixEncode, mixSimulate})
	out := make([]serveReq, 0, n)
	for k, kind := range kinds {
		names := serveSchemes
		if kind == "simulate" {
			names = servePairings
		}
		for b, m := range apportion(perKind[k], zipf) {
			off := rng.Intn(len(names))
			for i := 0; i < m; i++ {
				out = append(out, makeServeReq(kind, workload.Benchmarks[b], names[(off+i)%len(names)]))
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// apportion splits n into parts proportional to weights by the largest
// remainder method, so the parts sum to n exactly.
func apportion(n int, weights []float64) []int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	parts := make([]int, len(weights))
	rems := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := float64(n) * w / total
		parts[i] = int(exact)
		rems[i] = exact - float64(parts[i])
		left -= parts[i]
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rems[order[a]] > rems[order[b]] })
	for i := 0; i < left; i++ {
		parts[order[i]]++
	}
	return parts
}

// serveSetups is how many times a serve run sets up; each set-up
// builds every artifact the timed phase uses, about two seconds.
const serveSetups = 3

// serveConns is the client connection count: one per CPU.
func serveConns() int { return runtime.NumCPU() }

// generatorProcs gives the load generator a processor of its own. The
// generator and the client share the process with the server; with
// one P per CPU, handler goroutines decoding for tens of milliseconds
// hold every P and the generator's timers fire late until the
// scheduler preempts them. The server's driver pool stays one worker
// per CPU and the client keeps one connection per CPU, so the extra P
// adds no server-side parallelism. It returns the previous setting.
func generatorProcs() int { return runtime.GOMAXPROCS(runtime.NumCPU() + 1) }

// serveSetup boots a daemon and requests every benchmark × scheme once
// (encode, then decode, which builds the decode plan) and every
// benchmark × pairing simulate once (which builds its trace).
func serveSetup(wrapTr *tracer) (*daemon, error) {
	d, err := startDaemon(serveConns(), handlerWrapper(wrapTr))
	if err != nil {
		return nil, err
	}
	var warm []serveReq
	for _, b := range workload.Benchmarks {
		for _, sc := range serveSchemes {
			warm = append(warm, makeServeReq("encode", b, sc), makeServeReq("decode", b, sc))
		}
		for _, p := range servePairings {
			warm = append(warm, makeServeReq("simulate", b, p))
		}
	}
	for _, r := range warm {
		if rep := sendServe(d, r, nil); rep.Err != nil {
			return nil, errors.Join(fmt.Errorf("warm %s %s/%s: %w", r.Kind, r.Bench, r.Name, rep.Err), d.stop())
		}
	}
	return d, nil
}

func sendServe(d *daemon, r serveReq, hdr http.Header) serveReply {
	var rep serveReply
	switch r.Kind {
	case "decode":
		rep.Err = d.post(r.Path, r.Body, &rep.Decode, hdr)
	case "encode":
		rep.Err = d.post(r.Path, r.Body, &rep.Encode, hdr)
	default:
		rep.Err = d.post(r.Path, r.Body, &rep.Sim, hdr)
	}
	return rep
}

// servePhase is one fixed-rate phase of the open loop, sent as one or
// more windows.
type servePhase struct {
	Name    string
	Rate    float64
	Seed    int64
	Reqs    []serveReq
	Replies []serveReply
	Windows [][]sample
	Stats   phaseStats
}

func newPhase(name string, rate float64, seed int64, n int) *servePhase {
	reqs := dealRequests(seed, n)
	return &servePhase{Name: name, Rate: rate, Seed: seed, Reqs: reqs, Replies: make([]serveReply, len(reqs))}
}

// samples returns every window's samples in request order.
func (ph *servePhase) samples() []sample {
	var out []sample
	for _, w := range ph.Windows {
		out = append(out, w...)
	}
	return out
}

// phaseSize is a phase's request count: share of the timed phase at
// rate, but never fewer than minPhaseSamples.
func phaseSize(rate, seconds, share float64) int {
	return max(minPhaseSamples, int(rate*seconds*share))
}

// runWindow sends the phase's requests [lo, hi) open-loop at its rate
// as one window and waits for every reply, recording client-side spans
// (request = queue + http) under parent in a traced run. Request ids
// are reqBase plus the request's index in the phase.
func (ph *servePhase) runWindow(d *daemon, lo, hi int, tr *tracer, parent int32, reqBase int64) {
	reqs, replies := ph.Reqs[lo:hi], ph.Replies[lo:hi]
	due := arrivals(rand.New(rand.NewSource(ph.Seed+int64(lo))), len(reqs), ph.Rate)
	pid := tr.begin("phase."+ph.Name, parent, 0)
	start := time.Now()
	w := runOpenLoop(start, due, serveConns(), func(i int, sent time.Time) bool {
		req := reqBase + int64(lo+i)
		rid := tr.open("request", pid, req, start.Add(due[i]))
		tr.close(tr.open("queue", rid, req, start.Add(due[i])), sent)
		hid := tr.open("http", rid, req, sent)
		replies[i] = sendServe(d, reqs[i], spanHeader(hid, req))
		now := time.Now()
		tr.close(hid, now)
		tr.close(rid, now)
		return replies[i].Err == nil
	})
	tr.end(pid)
	ph.Windows = append(ph.Windows, w)
	ph.Stats = summarize(ph.Rate, ph.Windows...)
}

// serveExpect computes, on a driver of its own, what each reply must
// carry: decode digests from the scheduled program, encode sizes from
// the images, and simulate counters from the oracle.
type serveExpect struct {
	drv    *core.Driver
	hashes map[string]string
	images map[string]serve.EncodeResponse
	sims   map[string]cache.Result
	simOK  map[string]bool
}

func newServeExpect() *serveExpect {
	return &serveExpect{drv: core.NewDriver(0), hashes: map[string]string{},
		images: map[string]serve.EncodeResponse{}, sims: map[string]cache.Result{}, simOK: map[string]bool{}}
}

// placementOps returns the program's operations block by block in the
// image's placement order, the input of serve.HashOps.
func placementOps(c *core.Compiled, sc string) ([][]isa.Op, error) {
	im, err := c.Image(sc)
	if err != nil {
		return nil, err
	}
	byID := make(map[int][]isa.Op, len(c.Prog.Blocks))
	for i := range c.Prog.Blocks {
		byID[c.Prog.Blocks[i].ID] = c.Prog.Blocks[i].Ops
	}
	blocks := make([][]isa.Op, len(im.Blocks))
	for i, b := range im.Blocks {
		ops, ok := byID[b.ID]
		if !ok {
			return nil, fmt.Errorf("image block %d references unknown program block %d", i, b.ID)
		}
		blocks[i] = ops
	}
	return blocks, nil
}

// check returns "" when the reply is right, else what is wrong.
func (e *serveExpect) check(r serveReq, rep serveReply) (string, error) {
	if rep.Err != nil {
		return rep.Err.Error(), nil
	}
	c, err := e.drv.CompileBenchmark(r.Bench)
	if err != nil {
		return "", err
	}
	key := r.Bench + "/" + r.Name
	switch r.Kind {
	case "decode":
		want, ok := e.hashes[key]
		if !ok {
			blocks, err := placementOps(c, r.Name)
			if err != nil {
				return "", err
			}
			want = serve.HashOps(blocks)
			e.hashes[key] = want
		}
		if rep.Decode.OpsHash != want {
			return fmt.Sprintf("decode %s: ops_hash %.16s, want %.16s", key, rep.Decode.OpsHash, want), nil
		}
	case "encode":
		want, ok := e.images[key]
		if !ok {
			im, err := c.Image(r.Name)
			if err != nil {
				return "", err
			}
			want = serve.EncodeResponse{Blocks: len(im.Blocks), CodeBytes: im.CodeBytes, TotalBytes: im.TotalBytes()}
			if im.ATT != nil {
				want.ATTBytes = im.ATT.CompressedBytes
			}
			e.images[key] = want
		}
		got := rep.Encode
		if got.Blocks != want.Blocks || got.CodeBytes != want.CodeBytes ||
			got.ATTBytes != want.ATTBytes || got.TotalBytes != want.TotalBytes {
			return fmt.Sprintf("encode %s: sizes %d/%d/%d/%d, want %d/%d/%d/%d", key,
				got.Blocks, got.CodeBytes, got.ATTBytes, got.TotalBytes,
				want.Blocks, want.CodeBytes, want.ATTBytes, want.TotalBytes), nil
		}
	default:
		want, ok := e.sims[key]
		if !ok {
			if want, e.simOK[key], err = simOracle(c, r.Name); err != nil {
				return "", err
			}
			e.sims[key] = want
		}
		if !e.simOK[key] {
			return "", nil
		}
		if ms := simcheck.Diff(resultOf(rep.Sim), want); len(ms) > 0 {
			return fmt.Sprintf("simulate %s: %s got %d want %d", key, ms[0].Field, ms[0].Got, ms[0].Want), nil
		}
	}
	return "", nil
}

// simOracle is the oracle for a non-stream simulate of serveSimBlocks
// blocks; supported is false for pairings outside its model.
func simOracle(c *core.Compiled, pairing string) (want cache.Result, supported bool, err error) {
	p, ok := scheme.PairingByName(pairing)
	if !ok {
		return cache.Result{}, false, fmt.Errorf("unknown pairing %q", pairing)
	}
	im, rom, err := pairingImages(c, p)
	if err != nil {
		return cache.Result{}, false, err
	}
	tr, err := c.Trace(serveSimBlocks)
	if err != nil {
		return cache.Result{}, false, err
	}
	want, err = simcheck.Expected(p.Org, cache.DefaultConfig(p.Org), im, rom, c.Prog, tr)
	if errors.Is(err, simcheck.ErrUnsupported) {
		return cache.Result{}, false, nil
	}
	return want, err == nil, err
}

// lowHighRounds is how many alternating windows the low and high
// phases are sent in. Spreading each phase over the whole first part
// of the run, instead of one block each, lets both see the same host
// conditions and keeps a burst of contention from landing on one
// phase alone.
const lowHighRounds = 3

// servePhases runs the low and high phases in alternating windows and
// then the ladder, one window per rung, until a rung misses the limit.
// Phase k deals its requests and draws its arrivals from seed and k.
// It also returns the process CPU time the low and high phases used;
// the ladder's length varies, so its CPU time is left out.
func servePhases(d *daemon, seed int64, seconds float64, tr *tracer, parent int32) ([]*servePhase, time.Duration) {
	phaseSeed := func(k int) int64 { return seed*1_000_003 + int64(k)*7919 }
	low := newPhase("low", lowRate, phaseSeed(0), phaseSize(lowRate, seconds, 0.4))
	high := newPhase("high", highRate, phaseSeed(1), phaseSize(highRate, seconds, 0.2))
	reqBase := int64(1)
	cpu0 := cpuTime()
	for r := 0; r < lowHighRounds; r++ {
		for _, ph := range []*servePhase{low, high} {
			n := len(ph.Reqs)
			ph.runWindow(d, r*n/lowHighRounds, (r+1)*n/lowHighRounds, tr, parent, reqBase)
			reqBase += int64(n)
		}
	}
	cpu := cpuTime() - cpu0
	out := []*servePhase{low, high}
	for k, rate := range ladderRates {
		ph := newPhase(fmt.Sprintf("rung%.0f", rate), rate, phaseSeed(2+k), phaseSize(rate, seconds, 0.1))
		ph.runWindow(d, 0, len(ph.Reqs), tr, parent, reqBase)
		reqBase += int64(len(ph.Reqs))
		out = append(out, ph)
		if !ph.Stats.meets(latencyLimitMS) {
			break
		}
	}
	return out, cpu
}

// maxRPS is the completion rate of the highest-rate phase that met
// the limit, or 0 when none did.
func maxRPS(phases []*servePhase) float64 {
	var best *servePhase
	for _, ph := range phases {
		if ph.Stats.meets(latencyLimitMS) && (best == nil || ph.Rate > best.Rate) {
			best = ph
		}
	}
	if best == nil {
		return 0
	}
	return best.Stats.Completed
}

// checkPhases verifies every reply; it returns attempted, failed and a
// line per distinct problem (the first few).
func checkPhases(phases []*servePhase) (attempted, failed int64, problems []string, err error) {
	exp := newServeExpect()
	for _, ph := range phases {
		for i, r := range ph.Reqs {
			attempted++
			msg, err := exp.check(r, ph.Replies[i])
			if err != nil {
				return 0, 0, nil, err
			}
			if msg != "" {
				failed++
				if len(problems) < 10 {
					problems = append(problems, ph.Name+": "+msg)
				}
			}
		}
	}
	return attempted, failed, problems, nil
}

// storeTraffic reads the artifact store's hit and miss counters.
func storeTraffic(d *daemon) (hits, misses int64) {
	st := d.srv.Driver().Stats()
	return st.Counter("artifact.hit").Value(), st.Counter("artifact.miss").Value()
}

// runServe warms the daemon, runs the open-loop phases and checks every
// reply.
func runServe(o options) (*outcome, error) {
	defer runtime.GOMAXPROCS(generatorProcs())
	heap := startHeapSampler()
	d, setups, err := repeatSetup(serveSetups, func() (*daemon, error) { return serveSetup(nil) })
	if err != nil {
		heap.stopMB()
		return nil, err
	}
	oc := &outcome{Setups: setups}
	h0, m0 := storeTraffic(d)
	phases, cpu := servePhases(d, o.seed, o.seconds, nil, 0)
	h1, m1 := storeTraffic(d)
	oc.HeapMB = heap.stopMB()
	if err := d.stop(); err != nil {
		return nil, err
	}
	if oc.Attempted, oc.Failed, oc.Problems, err = checkPhases(phases); err != nil {
		return nil, err
	}
	low, high := phases[0].Stats, phases[1].Stats
	oc.CPUMS = ms(cpu) / float64(low.N+high.N)
	for _, ph := range phases {
		s := ph.Stats
		oc.Lines = append(oc.Lines, fmt.Sprintf("phase %-8s rate %5.0f/s  n %5d  p50 %7.2f ms  p99 %7.2f ms (reportable %v)  completed %6.1f/s  late p50 %.2f p99 %.2f ms  queue p99 %.2f ms  failed %d  meets %v",
			ph.Name, s.Rate, s.N, s.P50, s.P99, s.P99OK, s.Completed, s.LateP50, s.LateP99, s.QueueP99, s.Failed, s.meets(latencyLimitMS)))
	}
	hitRate := 0.0
	if h1-h0+m1-m0 > 0 {
		hitRate = float64(h1-h0) / float64(h1-h0+m1-m0)
	}
	oc.Named = append(oc.Named,
		named{Name: "low.p50_ms", Value: low.P50, Unit: "ms", Note: fmt.Sprintf("n=%d at %.0f/s", low.N, low.Rate)},
		p99Named("low.p99_ms", low),
		named{Name: "high.p50_ms", Value: high.P50, Unit: "ms", Note: fmt.Sprintf("n=%d at %.0f/s", high.N, high.Rate)},
		p99Named("high.p99_ms", high),
		named{Name: "max_rps", Value: maxRPS(phases), Unit: "1/s",
			Note: fmt.Sprintf("p99 limit %d ms, %d phases run", latencyLimitMS, len(phases))},
		named{Name: "store.hit_rate", Value: hitRate, Unit: "ratio", Note: fmt.Sprintf("%d misses in the timed phase", m1-m0)},
	)
	return oc, nil
}

// p99Named reports a phase's p99, noting when too few samples lie
// beyond it to trust it.
func p99Named(name string, s phaseStats) named {
	note := fmt.Sprintf("n=%d", s.N)
	if !s.P99OK {
		note += ", NOT REPORTABLE: fewer than 10 samples beyond"
	}
	return named{Name: name, Value: s.P99, Unit: "ms", Note: note}
}
