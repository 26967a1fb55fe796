package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/bitio"
	"repro/internal/cache"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/scheme"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The traced run times each layer's public entry point from this file,
// around calls into the layer, and derives the per-layer metrics. It
// runs the same probes whatever the workload, so every traced run
// reports every per-layer metric; the workload argument picks which
// workload's unit of work the tracing overhead is measured on.

// Probe repetition counts: build probes run cold and are repeated
// whole; kernel probes run interleaved rounds over every scheme.
const (
	buildReps    = 3
	kernelRounds = 7
	replayReps   = 3
)

// huffmanSchemes are the schemes with a decode plan and lane kernel.
var huffmanSchemes = []string{"byte", "stream", "stream_1", "full"}

// layerResult is what the traced run measured.
type layerResult struct {
	Attempted, Failed int64
	Metrics           map[string]metric
	Problems          []string
}

func (lr *layerResult) set(name string, v float64, unit string) { lr.Metrics[name] = metric{v, unit} }

// check counts one checked output.
func (lr *layerResult) check(ok bool, format string, args ...any) {
	lr.Attempted++
	if !ok {
		lr.Failed++
		lr.Problems = append(lr.Problems, fmt.Sprintf(format, args...))
	}
}

// layerProbe holds the compiled programs every probe after the build
// probes shares.
type layerProbe struct {
	tr     *tracer
	root   int32  // the span every probe span hangs under
	dir    string // repository checkout
	progs  map[string]*core.Compiled
	traces map[string]*trace.Trace // replay inputs, collected at replayOps
}

func runLayers(o options, w workloadDef, tr *tracer) (*layerResult, error) {
	lr := &layerResult{Metrics: map[string]metric{}}
	p := &layerProbe{tr: tr, root: tr.begin("layers", 0, 0), dir: o.root}
	defer tr.end(p.root)
	steps := []struct {
		name string
		fn   func(*layerResult) error
	}{
		{"compile", p.compile},
		{"encode", p.encode},
		{"kernel", p.kernels},
		{"producer", p.producer},
		{"replay", p.replay},
		{"figures", p.figures},
		{"scheduler", p.scheduler},
		{"service", p.service},
	}
	for _, s := range steps {
		id := tr.begin("probe."+s.name, p.root, 0)
		err := s.fn(lr)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", s.name, err)
		}
	}
	if err := p.overhead(w.Name, lr); err != nil {
		return nil, fmt.Errorf("tracing overhead: %w", err)
	}
	return lr, nil
}

// timedReps runs fn reps times and returns the median wall time in ms
// and the median heap allocation count.
func (p *layerProbe) timedReps(reps int, fn func() error) (msMed, allocMed float64, err error) {
	var ts, as []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		a0 := heapAllocs()
		d, err := timeIt(fn)
		if err != nil {
			return 0, 0, err
		}
		ts = append(ts, ms(d))
		as = append(as, float64(heapAllocs()-a0))
	}
	return median(ts), median(as), nil
}

// compile times Driver.CompileBenchmark cold for all eight benchmarks
// on a one-worker driver.
func (p *layerProbe) compile(lr *layerResult) error {
	msMed, allocMed, err := p.timedReps(buildReps, func() error {
		d := core.NewDriver(1)
		for _, b := range workload.Benchmarks {
			id := p.tr.begin("compile", p.root, 0)
			_, err := d.CompileBenchmark(b)
			p.tr.end(id)
			if err != nil {
				return fmt.Errorf("compile %s: %w", b, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lr.set("compile.ms", msMed, "ms")
	lr.set("compile.allocs", allocMed, "count")
	return nil
}

// encode times Compiled.Image cold per scheme (base first, so the ATT
// of every other scheme builds against a ready base image) and then
// Compiled.DecodePlan per Huffman scheme, summed over the benchmarks.
// The last repetition's programs serve the later probes.
func (p *layerProbe) encode(lr *layerResult) error {
	encMS := map[string][]float64{}
	var planMS []float64
	for rep := 0; rep < buildReps; rep++ {
		runtime.GC()
		d := core.NewDriver(1)
		progs := map[string]*core.Compiled{}
		for _, b := range workload.Benchmarks {
			c, err := d.CompileBenchmark(b)
			if err != nil {
				return err
			}
			progs[b] = c
		}
		for _, sc := range serveSchemes {
			d, err := timeIt(func() error {
				for _, b := range workload.Benchmarks {
					id := p.tr.begin("encode."+sc, p.root, 0)
					_, err := progs[b].Image(sc)
					p.tr.end(id)
					if err != nil {
						return fmt.Errorf("image %s/%s: %w", b, sc, err)
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			encMS[sc] = append(encMS[sc], ms(d))
		}
		d2, err := timeIt(func() error {
			for _, sc := range huffmanSchemes {
				for _, b := range workload.Benchmarks {
					id := p.tr.begin("decplan", p.root, 0)
					plan, err := progs[b].DecodePlan(sc)
					p.tr.end(id)
					if err != nil {
						return fmt.Errorf("decode plan %s/%s: %w", b, sc, err)
					}
					if plan == nil {
						return fmt.Errorf("decode plan %s/%s: scheme has no batch face", b, sc)
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		planMS = append(planMS, ms(d2))
		p.progs = progs
	}
	for _, sc := range serveSchemes {
		lr.set("encode."+sc+".ms", median(encMS[sc]), "ms")
	}
	lr.set("decplan.ms", median(planMS), "ms")
	return nil
}

// kernels times, in interleaved rounds over the schemes, the lane
// kernel's symbol scan (DecodePlan.DecodeSymbols), whole-block decode
// (Encoder.DecodeBlock over every block) and serve.HashOps, each over
// all eight benchmarks. Each metric is the median over rounds.
func (p *layerProbe) kernels(lr *layerResult) error {
	scan := map[string][]float64{}
	block := map[string][]float64{}
	var hash []float64
	for round := 0; round < kernelRounds; round++ {
		for _, sc := range huffmanSchemes {
			var syms int64
			d, err := timeIt(func() error {
				for _, b := range workload.Benchmarks {
					plan, err := p.progs[b].DecodePlan(sc)
					if err != nil {
						return err
					}
					id := p.tr.begin("scan."+sc, p.root, 0)
					n, _, err := plan.DecodeSymbols(nil)
					p.tr.end(id)
					if err != nil {
						return fmt.Errorf("scan %s/%s: %w", b, sc, err)
					}
					syms += n
				}
				return nil
			})
			if err != nil {
				return err
			}
			scan[sc] = append(scan[sc], float64(d.Nanoseconds())/float64(syms))
		}
		for _, sc := range serveSchemes {
			var ops int64
			d, err := timeIt(func() error {
				for _, b := range workload.Benchmarks {
					n, err := p.decodeBlocks(b, sc)
					if err != nil {
						return fmt.Errorf("block decode %s/%s: %w", b, sc, err)
					}
					ops += n
				}
				return nil
			})
			if err != nil {
				return err
			}
			block[sc] = append(block[sc], float64(d.Nanoseconds())/float64(ops))
		}
		var ops int64
		var hashTime time.Duration
		for _, b := range workload.Benchmarks {
			blocks, err := placementOps(p.progs[b], "full")
			if err != nil {
				return err
			}
			id := p.tr.begin("hash", p.root, 0)
			t0 := time.Now()
			hashSink = serve.HashOps(blocks)
			hashTime += time.Since(t0)
			p.tr.end(id)
			ops += int64(p.progs[b].Prog.TotalOps())
		}
		hash = append(hash, float64(hashTime.Nanoseconds())/float64(ops))
	}
	for _, sc := range huffmanSchemes {
		lr.set("scan."+sc+".ns_per_symbol", median(scan[sc]), "ns")
	}
	for _, sc := range serveSchemes {
		lr.set("blockdec."+sc+".ns_per_op", median(block[sc]), "ns")
	}
	lr.set("hash.ns_per_op", median(hash), "ns")
	return nil
}

// decodeBlocks decodes every block of one image through its encoder,
// as /v1/decode does after the symbol scan, and returns the op count.
func (p *layerProbe) decodeBlocks(bench, sc string) (int64, error) {
	c := p.progs[bench]
	enc, err := c.Encoder(sc)
	if err != nil {
		return 0, err
	}
	im, err := c.Image(sc)
	if err != nil {
		return 0, err
	}
	id := p.tr.begin("blockdec."+sc, p.root, 0)
	defer p.tr.end(id)
	return decodeImageBlocks(enc, im)
}

func decodeImageBlocks(enc compress.Encoder, im *image.Image) (int64, error) {
	r := bitio.NewReader(im.Data)
	var ops int64
	for i := range im.Blocks {
		if err := r.SeekBit(im.Blocks[i].Addr * 8); err != nil {
			return ops, err
		}
		out, err := enc.DecodeBlock(r, im.Blocks[i].Ops)
		if err != nil {
			return ops, err
		}
		ops += int64(len(out))
	}
	return ops, nil
}

// producer drains Compiled.StreamTraceOps for each replay program, then
// collects the same stream as a trace and times trace.ValidateChunk
// over its chunks. The collected traces are the replay probe's input.
func (p *layerProbe) producer(lr *layerResult) error {
	p.traces = map[string]*trace.Trace{}
	var valOps int64
	var valTime time.Duration
	for _, b := range []string{"gcc", "compress"} {
		c := p.progs[b]
		var rates []float64
		for rep := 0; rep < replayReps; rep++ {
			st, err := c.StreamTraceOps(replayOps, 0)
			if err != nil {
				return err
			}
			var ops int64
			id := p.tr.begin("producer."+b, p.root, 0)
			d, err := timeIt(func() error {
				for {
					ch, err := st.Next()
					if err != nil || ch == nil {
						return err
					}
					ops += ch.Ops
					st.Recycle(ch)
				}
			})
			p.tr.end(id)
			if err != nil {
				return fmt.Errorf("drain %s: %w", b, err)
			}
			rates = append(rates, float64(ops)/d.Seconds()/1e6)
		}
		lr.set("producer."+b+".mops", median(rates), "Mops/s")

		st, err := c.StreamTraceOps(replayOps, 0)
		if err != nil {
			return err
		}
		tr, err := trace.Collect(st)
		if err != nil {
			return fmt.Errorf("collect %s: %w", b, err)
		}
		p.traces[b] = tr
		ss := trace.NewSliceStream(tr, 0)
		id := p.tr.begin("validate", p.root, 0)
		for {
			ch, err := ss.Next()
			if err != nil {
				return err
			}
			if ch == nil {
				break
			}
			t0 := time.Now()
			verr := trace.ValidateChunk(ch, len(c.Prog.Blocks))
			valTime += time.Since(t0)
			if verr != nil {
				return fmt.Errorf("validate %s: %w", b, verr)
			}
			valOps += ch.Ops
		}
		p.tr.end(id)
	}
	lr.set("validate.mops", float64(valOps)/valTime.Seconds()/1e6, "Mops/s")
	return nil
}

// pairingSim builds a fresh simulator for one replay point.
func (p *layerProbe) pairingSim(pt replayPoint) (*cache.Sim, error) {
	pr, ok := scheme.PairingByName(pt.Pairing)
	if !ok {
		return nil, fmt.Errorf("unknown pairing %q", pt.Pairing)
	}
	return p.progs[pt.Bench].SimFor(pr, cache.DefaultConfig(pr.Org))
}

// metricKey is a replay point's per-layer metric prefix.
func metricKey(pt replayPoint) string { return pt.Bench + "." + strings.ToLower(pt.Pairing) }

// replay times Sim.RunStream over the pre-collected traces, which
// leaves the producer out, and reports ns and allocations per event.
func (p *layerProbe) replay(lr *layerResult) error {
	for _, pt := range replayPoints {
		tr := p.traces[pt.Bench]
		var ns, allocs []float64
		for rep := 0; rep < replayReps; rep++ {
			sim, err := p.pairingSim(pt)
			if err != nil {
				return err
			}
			runtime.GC()
			a0 := heapAllocs()
			id := p.tr.begin("replay."+metricKey(pt), p.root, 0)
			d, err := timeIt(func() error {
				_, err := sim.RunStream(trace.NewSliceStream(tr, 0))
				return err
			})
			p.tr.end(id)
			if err != nil {
				return fmt.Errorf("replay %s: %w", pt, err)
			}
			events := float64(len(tr.Events))
			ns = append(ns, float64(d.Nanoseconds())/events)
			allocs = append(allocs, float64(heapAllocs()-a0)/events)
		}
		lr.set("replay."+metricKey(pt)+".ns_per_event", median(ns), "ns")
		lr.set("replay."+metricKey(pt)+".allocs_per_event", median(allocs), "count")
	}
	return nil
}

// figures regenerates the figures once with a span per figure and
// checks the output.
func (p *layerProbe) figures(lr *layerResult) error {
	want, err := expectedFigures(p.dir)
	if err != nil {
		return err
	}
	id := p.tr.begin("figures", p.root, 0)
	got, err := regenerateFigures(p.tr, id)
	p.tr.end(id)
	if err != nil {
		return err
	}
	lr.check(got == want, "traced figures differ from docs/RESULTS.txt")
	spans := p.tr.snapshot()
	for _, f := range figureSet {
		ds := spansNamed(spans, nil, "figure."+f.name, nil)
		lr.set("figure."+f.name+".s", ds[len(ds)-1]/1000, "s")
	}
	return nil
}

// scheduler sends one traced pass of the replay sequence through
// /v1/simulate stream mode (the server's default shard count) and one
// sequential Sim.RunStream over the same producer per point. The
// ratio of their rates is sched.ratio; the replies give the exact
// simulated stage counts and are checked against the sequential run
// and the oracle.
func (p *layerProbe) scheduler(lr *layerResult) error {
	d, err := replaySetup(p.tr)
	if err != nil {
		return err
	}
	id := p.tr.begin("replay.pass", p.root, 0)
	resps, times, err := replayPass(d, p.tr, id, 1)
	p.tr.end(id)
	if err := errors.Join(err, d.stop()); err != nil {
		return err
	}
	var httpTime, seqTime time.Duration
	for i, pt := range replayPoints {
		sim, err := p.pairingSim(pt)
		if err != nil {
			return err
		}
		st, err := p.progs[pt.Bench].StreamTraceOps(replayOps, 0)
		if err != nil {
			return err
		}
		var seq cache.Result
		sid := p.tr.begin("sequential."+metricKey(pt), p.root, 0)
		dt, err := timeIt(func() (err error) {
			seq, err = sim.RunStream(st)
			return err
		})
		p.tr.end(sid)
		if err != nil {
			return fmt.Errorf("sequential %s: %w", pt, err)
		}
		httpTime += times[i]
		seqTime += dt
		r := resps[i]
		got := resultOf(r)
		seq.Benchmark, seq.Scheme, seq.Org = "", "", ""
		lr.check(got == seq, "replay %s: streamed reply differs from sequential RunStream", pt)
		k := "sim." + metricKey(pt)
		lr.set(k+".ipc", r.IPC, "ops/cycle")
		lr.set(k+".l0_hit_rate", float64(r.BufferHits)/float64(r.BlockFetches), "ratio")
		lr.set(k+".cache_miss_rate", float64(r.CacheMisses)/float64(r.CacheLookups), "ratio")
		lr.set(k+".atb_hit_rate", r.ATBHitRate, "ratio")
	}
	lr.set("sched.ratio", seqTime.Seconds()/httpTime.Seconds(), "ratio")
	wrong, problems, err := checkReplay([][]serve.SimulateResponse{resps})
	if err != nil {
		return err
	}
	lr.Attempted += int64(len(resps))
	lr.Failed += wrong
	lr.Problems = append(lr.Problems, problems...)
	return nil
}

// serviceRate is the traced serve phase's rate: the high rate, where
// queueing shows.
const serviceRate = highRate

// service runs one traced open-loop phase at serviceRate against a
// warmed daemon whose handler is wrapped in spans, and derives the
// handler, HTTP, queue, generator and store metrics.
func (p *layerProbe) service(lr *layerResult) error {
	defer runtime.GOMAXPROCS(generatorProcs())
	d, err := serveSetup(p.tr)
	if err != nil {
		return err
	}
	h0, m0 := storeTraffic(d)
	ph := p.servicePhase(d, p.tr)
	h1, m1 := storeTraffic(d)
	if err := d.stop(); err != nil {
		return err
	}
	att, failed, problems, err := checkPhases([]*servePhase{ph})
	if err != nil {
		return err
	}
	lr.Attempted += att
	lr.Failed += failed
	lr.Problems = append(lr.Problems, problems...)

	// Only spans of the timed phase count: set-up requests build
	// artifacts, and the replay probe's requests are long simulations.
	spans := p.tr.snapshot()
	self := selfTimes(spans)
	phase := within(spans, "service")
	for _, ep := range []string{"encode", "decode", "simulate"} {
		lr.set("handler."+ep+".ms", median(spansNamed(spans, nil, "handler."+ep, phase)), "ms")
	}
	lr.set("http.overhead_us", 1000*median(spansNamed(spans, self, "http", phase)), "us")
	lr.set("queue_ms", ph.Stats.QueueP99, "ms")
	lr.set("gen.late_ms", ph.Stats.LateP99, "ms")
	hitRate := 0.0
	if n := h1 - h0 + m1 - m0; n > 0 {
		hitRate = float64(h1-h0) / float64(n)
	}
	lr.set("store.hit_rate", hitRate, "ratio")
	lr.set("store.misses", float64(m1-m0), "count")
	return nil
}

// servicePhase runs the serve probe's phase with the given tracer.
func (p *layerProbe) servicePhase(d *daemon, tr *tracer) *servePhase {
	id := tr.begin("service", p.root, 0)
	defer tr.end(id)
	ph := newPhase("traced", serviceRate, 7, minPhaseSamples)
	ph.runWindow(d, 0, len(ph.Reqs), tr, id, 1)
	return ph
}

// overhead reruns the chosen workload's unit of work untraced and
// reports how much slower the traced run of it was.
func (p *layerProbe) overhead(name string, lr *layerResult) error {
	var traced, plain float64
	spans := p.tr.snapshot()
	switch name {
	case "figures":
		ds := spansNamed(spans, nil, "figures", nil)
		traced = ds[len(ds)-1]
		d, err := timeIt(func() error { _, err := regenerateFigures(nil, 0); return err })
		if err != nil {
			return err
		}
		plain = ms(d)
	case "replay":
		ds := spansNamed(spans, nil, "replay.pass", nil)
		traced = ds[len(ds)-1]
		d, err := replaySetup(nil)
		if err != nil {
			return err
		}
		_, times, err := replayPass(d, nil, 0, 0)
		if err := errors.Join(err, d.stop()); err != nil {
			return err
		}
		for _, t := range times {
			plain += ms(t)
		}
	default:
		defer runtime.GOMAXPROCS(generatorProcs())
		traced = median(spansNamed(spans, nil, "request", nil))
		d, err := serveSetup(nil)
		if err != nil {
			return err
		}
		ph := p.servicePhase(d, nil)
		if err := d.stop(); err != nil {
			return err
		}
		plain = ph.Stats.P50
	}
	lr.set("trace.overhead_pct", 100*(traced-plain)/plain, "%")
	return nil
}

// hashSink keeps the compiler from discarding the hash probe's work.
var hashSink string
