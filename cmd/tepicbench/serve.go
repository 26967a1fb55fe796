package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	ccc "repro"
	"repro/internal/cliio"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/loadgen"
	"repro/internal/scheme"
	"repro/internal/serve"
)

// serveRun carries the -serve mode's parsed options.
type serveRun struct {
	benchmarks []string
	par        int
	workers    int
	requests   int
	skew       float64
	mix        []string
	pairing    string
	scheme     string
	blocks     int
	cachecap   int
	check      bool
	jsonPath   string
	minRPS     float64
}

// serveReport is the -serve mode's machine-readable summary
// (BENCH_serve.json in CI): the zipf fleet's throughput and latency
// percentiles plus the daemon-side artifact-store traffic and the
// decode bit-identity audit verdict.
type serveReport struct {
	Tool           string          `json:"tool"`
	Mode           string          `json:"mode"`
	Benchmarks     []string        `json:"benchmarks"`
	Scheme         string          `json:"scheme"`
	Parallelism    int             `json:"parallelism"`
	Fleet          *loadgen.Report `json:"fleet"`
	CacheHits      int64           `json:"cache_hits"`
	CacheMisses    int64           `json:"cache_misses"`
	CacheEvictions int64           `json:"cache_evictions"`
	CacheHitRate   float64         `json:"cache_hit_rate"`
	DecodeChecked  bool            `json:"decode_checked"`
	DecodeOK       bool            `json:"decode_ok"`
	DecodeAudited  int             `json:"decode_audited"`
	hostInfo
}

// runServe boots an in-process tepicd, drives the zipf-skewed client
// fleet against it, optionally audits daemon decodes for bit-identity
// against a fresh direct pipeline, and writes the service benchmark
// report.
//
//tepic:pool
func runServe(o serveRun, w *cliio.Writer) error {
	benchmarks := o.benchmarks
	if len(benchmarks) == 0 {
		benchmarks = ccc.Benchmarks
	}

	drv := core.NewDriverWithCache(o.par, o.cachecap)
	s := serve.New(serve.Config{Driver: drv})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}

	base := "http://" + ln.Addr().String()
	w.Printf("service benchmark: in-process tepicd on %s\n", base)

	rep, err := loadgen.Run(base, loadgen.Options{
		Workers:           o.workers,
		RequestsPerWorker: o.requests,
		Benchmarks:        benchmarks,
		Skew:              o.skew,
		Mix:               o.mix,
		Scheme:            o.scheme,
		Pairing:           o.pairing,
		Blocks:            o.blocks,
	})
	if err != nil {
		if serr := shutdown(); serr != nil {
			return fmt.Errorf("%w (and shutting down: %v)", err, serr)
		}
		return err
	}

	w.Printf("fleet: %d workers x %d requests, zipf skew %.2f over %d benchmarks\n",
		rep.Workers, rep.RequestsPerWorker, rep.Skew, len(benchmarks))
	w.Printf("throughput %.1f req/s  p50 %.2fms  p95 %.2fms  p99 %.2fms  errors %d\n",
		rep.RequestsPerSec, rep.P50MS, rep.P95MS, rep.P99MS, rep.Errors)
	for _, name := range benchmarks {
		if n := rep.Popularity[name]; n > 0 {
			w.Printf("  %-10s %5d requests (%.1f%%)\n", name, n, 100*float64(n)/float64(rep.Requests))
		}
	}

	var checkErr error
	if rep.Errors > 0 {
		checkErr = fmt.Errorf("service fleet: %d of %d requests failed", rep.Errors, rep.Requests)
	}

	// Decode audit: every benchmark x pairing scheme through the live
	// daemon must hash to the same op stream as a fresh, cache-cold
	// direct pipeline — the service layer may not perturb a single bit.
	audited, decodeOK := 0, true
	if o.check && checkErr == nil {
		direct := core.NewDriver(0)
		for _, name := range benchmarks {
			c, err := direct.CompileBenchmark(name)
			if err != nil {
				checkErr = err
				break
			}
			for _, sc := range pairingSchemes() {
				want, err := directOpsHash(c, sc)
				if err != nil {
					checkErr = err
					break
				}
				var dec serve.DecodeResponse
				if err := postDecode(base, serve.DecodeRequest{Benchmark: name, Scheme: sc}, &dec); err != nil {
					checkErr = fmt.Errorf("decode audit %s/%s: %w", name, sc, err)
					break
				}
				audited++
				if dec.OpsHash != want {
					decodeOK = false
					checkErr = fmt.Errorf("decode audit %s/%s: daemon hash %s != direct %s",
						name, sc, dec.OpsHash, want)
					break
				}
			}
			if checkErr != nil {
				break
			}
		}
		if decodeOK && checkErr == nil {
			w.Printf("decode audit: %d benchmark x scheme points bit-identical to the direct pipeline\n", audited)
		}
	}

	if err := shutdown(); err != nil {
		return errors.Join(checkErr, err)
	}

	snap := drv.Stats().Snapshot()
	hits, misses := snap.Counters["artifact.hit"], snap.Counters["artifact.miss"]
	w.Printf("artifact store: %d hits, %d misses, %d evictions (%.1f%% hit rate)\n",
		hits, misses, snap.Counters["artifact.eviction"], 100*drv.CacheHitRate())

	if o.jsonPath != "" {
		out := serveReport{
			Tool:           "tepicbench",
			Mode:           "serve",
			Benchmarks:     benchmarks,
			Scheme:         o.scheme,
			Parallelism:    drv.Workers(),
			Fleet:          rep,
			CacheHits:      hits,
			CacheMisses:    misses,
			CacheEvictions: snap.Counters["artifact.eviction"],
			CacheHitRate:   drv.CacheHitRate(),
			DecodeChecked:  o.check,
			DecodeOK:       decodeOK,
			DecodeAudited:  audited,
			hostInfo:       currentHost(),
		}
		err := cliio.WriteFile(o.jsonPath, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(out)
		})
		if err != nil {
			return errors.Join(checkErr, err)
		}
		w.Printf("service benchmark report written to %s\n", o.jsonPath)
	}

	if checkErr == nil && o.minRPS > 0 && rep.RequestsPerSec < o.minRPS {
		checkErr = fmt.Errorf("service throughput %.1f req/s below minimum %.1f", rep.RequestsPerSec, o.minRPS)
	}
	return errors.Join(checkErr, w.Err())
}

// pairingSchemes is the decode audit's scheme set: the union of every
// registered pairing's cache and ROM encodings.
func pairingSchemes() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range scheme.Pairings() {
		for _, sc := range []string{p.CacheScheme, p.ROMScheme} {
			if sc != "" && !seen[sc] {
				seen[sc] = true
				out = append(out, sc)
			}
		}
	}
	return out
}

// directOpsHash digests the scheduled program's operations in image
// placement order for sc — the decode audit's independent ground truth.
func directOpsHash(c *core.Compiled, sc string) (string, error) {
	im, err := c.Image(sc)
	if err != nil {
		return "", err
	}
	byID := map[int][]isa.Op{}
	for i := range c.Prog.Blocks {
		byID[c.Prog.Blocks[i].ID] = c.Prog.Blocks[i].Ops
	}
	blocks := make([][]isa.Op, len(im.Blocks))
	for i, b := range im.Blocks {
		ops, ok := byID[b.ID]
		if !ok {
			return "", fmt.Errorf("image block %d references unknown program block %d", i, b.ID)
		}
		blocks[i] = ops
	}
	return serve.HashOps(blocks), nil
}

// postDecode sends one /v1/decode request and decodes the response,
// failing on any non-200 status.
func postDecode(base string, req serve.DecodeRequest, dst *serve.DecodeResponse) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/decode", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	derr := json.NewDecoder(resp.Body).Decode(dst)
	if cerr := resp.Body.Close(); derr == nil {
		derr = cerr
	}
	if derr != nil {
		return derr
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}
