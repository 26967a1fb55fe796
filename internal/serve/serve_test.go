package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/scheme"
	"repro/internal/workload"
)

// newTestServer boots a service instance over httptest.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON sends one request and returns status and raw body.
func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, data)
}

func postRaw(t *testing.T, url string, data []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func decodeInto(t *testing.T, data []byte, dst any) {
	t.Helper()
	if err := json.Unmarshal(data, dst); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
}

// groundTruthHash digests the scheduled program's own operations in
// image placement order — the independent truth every decode path must
// reproduce bit for bit.
func groundTruthHash(t *testing.T, c *core.Compiled, im *image.Image) string {
	t.Helper()
	byID := map[int][]isa.Op{}
	for i := range c.Prog.Blocks {
		byID[c.Prog.Blocks[i].ID] = c.Prog.Blocks[i].Ops
	}
	blocks := make([][]isa.Op, len(im.Blocks))
	for i, b := range im.Blocks {
		ops, ok := byID[b.ID]
		if !ok {
			t.Fatalf("image block %d references unknown program block %d", i, b.ID)
		}
		blocks[i] = ops
	}
	return HashOps(blocks)
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := getJSON(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", status)
	}
	var h HealthResponse
	decodeInto(t, body, &h)
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}

	resp, err := http.Post(ts.URL+"/healthz", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
		t.Errorf("Allow = %q, want GET", allow)
	}
}

// TestCompileEndpoint checks the handler against the direct core path:
// same program structure, same content key.
func TestCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v1/compile", CompileRequest{Benchmark: "compress"})
	if status != http.StatusOK {
		t.Fatalf("POST /v1/compile = %d: %s", status, body)
	}
	var got CompileResponse
	decodeInto(t, body, &got)

	c, err := core.CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	if got.Blocks != len(c.Prog.Blocks) || got.Ops != c.Prog.TotalOps() || got.MOPs != c.Prog.TotalMOPs() {
		t.Errorf("compile summary = %+v, want blocks=%d ops=%d mops=%d",
			got, len(c.Prog.Blocks), c.Prog.TotalOps(), c.Prog.TotalMOPs())
	}
	if got.ContentKey != c.ContentKey() {
		t.Errorf("content key %q differs from direct path %q", got.ContentKey, c.ContentKey())
	}
}

// TestEncodeDecodeGoldenRoundTrip drives every registered scheme for
// one benchmark through /v1/encode and /v1/decode and requires the
// daemon's decode digest to equal the ground truth derived from the
// scheduled program — request → artifact → decode, bit-identical to
// the direct core path — and its symbol count to equal the decode
// plan's.
func TestEncodeDecodeGoldenRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c, err := core.CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range core.SchemeNames() {
		im, err := c.Image(sc)
		if err != nil {
			t.Fatalf("direct image %s: %v", sc, err)
		}

		status, body := postJSON(t, ts.URL+"/v1/encode", EncodeRequest{Benchmark: "compress", Scheme: sc})
		if status != http.StatusOK {
			t.Fatalf("encode %s = %d: %s", sc, status, body)
		}
		var enc EncodeResponse
		decodeInto(t, body, &enc)
		if enc.CodeBytes != im.CodeBytes || enc.Blocks != len(im.Blocks) || enc.TotalBytes != im.TotalBytes() {
			t.Errorf("%s: encode summary %+v disagrees with direct image (code=%d blocks=%d total=%d)",
				sc, enc, im.CodeBytes, len(im.Blocks), im.TotalBytes())
		}

		status, body = postJSON(t, ts.URL+"/v1/decode", DecodeRequest{Benchmark: "compress", Scheme: sc})
		if status != http.StatusOK {
			t.Fatalf("decode %s = %d: %s", sc, status, body)
		}
		var dec DecodeResponse
		decodeInto(t, body, &dec)
		if dec.Ops != c.Prog.TotalOps() {
			t.Errorf("%s: decoded %d ops, want %d", sc, dec.Ops, c.Prog.TotalOps())
		}
		if want := groundTruthHash(t, c, im); dec.OpsHash != want {
			t.Errorf("%s: daemon decode hash %s != ground truth %s", sc, dec.OpsHash, want)
		}
		// Symbols is the plan's symbol total for the Huffman schemes and
		// 0 for the schemes without a plan (base, tailored).
		plan, err := c.DecodePlan(sc)
		if err != nil {
			t.Fatalf("decode plan %s: %v", sc, err)
		}
		wantSyms := int64(0)
		if plan != nil {
			wantSyms = int64(plan.Syms)
		}
		if dec.Symbols != wantSyms {
			t.Errorf("%s: decoded %d symbols, want %d", sc, dec.Symbols, wantSyms)
		}
	}
}

// TestGoldenCorpusDecodeIdentical is the service acceptance gate: for
// every benchmark × registered pairing, every scheme the pairing
// touches (cache side and ROM side) must decode through the daemon to
// exactly the bits the direct core.Driver path produces.
func TestGoldenCorpusDecodeIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus decode audit")
	}
	_, ts := newTestServer(t, Config{})
	direct := core.NewDriver(0) // independent driver: separate cache, separate builds
	for _, bench := range workload.Benchmarks {
		c, err := direct.CompileBenchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		schemes := map[string]bool{}
		for _, p := range scheme.Pairings() {
			schemes[p.CacheScheme] = true
			if p.ROMScheme != "" {
				schemes[p.ROMScheme] = true
			}
		}
		for sc := range schemes {
			im, err := c.Image(sc)
			if err != nil {
				t.Fatalf("direct image %s/%s: %v", bench, sc, err)
			}
			status, body := postJSON(t, ts.URL+"/v1/decode", DecodeRequest{Benchmark: bench, Scheme: sc})
			if status != http.StatusOK {
				t.Fatalf("decode %s/%s = %d: %s", bench, sc, status, body)
			}
			var dec DecodeResponse
			decodeInto(t, body, &dec)
			if want := groundTruthHash(t, c, im); dec.OpsHash != want {
				t.Errorf("%s/%s: daemon decode hash %s != direct path %s", bench, sc, dec.OpsHash, want)
			}
		}
	}
}

// TestLintEndpoint expects a clean verifier report for a healthy
// benchmark and a rejection for an unknown scheme in the list.
func TestLintEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v1/lint", LintRequest{Benchmark: "compress", Schemes: []string{"full", "base"}})
	if status != http.StatusOK {
		t.Fatalf("POST /v1/lint = %d: %s", status, body)
	}
	var rep LintResponse
	decodeInto(t, body, &rep)
	if rep.Errors != 0 {
		t.Errorf("lint found %d errors on a healthy benchmark: %s", rep.Errors, body)
	}
}

// TestSimulateEndpoint replays a short trace through a pairing and
// cross-checks the counters against a direct simulation.
func TestSimulateEndpoint(t *testing.T) {
	pairings := scheme.Pairings()
	if len(pairings) == 0 {
		t.Fatal("no registered pairings")
	}
	p := pairings[0]
	const blocks = 5000

	_, ts := newTestServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Benchmark: "compress", Pairing: p.Name, Blocks: blocks})
	if status != http.StatusOK {
		t.Fatalf("POST /v1/simulate = %d: %s", status, body)
	}
	var got SimulateResponse
	decodeInto(t, body, &got)

	c, err := core.CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	d := core.NewDriver(0)
	c = d.Bind(c)
	tr, err := c.Trace(blocks)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := c.SimFor(p, cache.DefaultConfig(p.Org))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Ops != want.Ops || got.CacheMisses != want.CacheMisses ||
		got.BusBeats != want.BusBeats || got.BitFlips != want.BitFlips {
		t.Errorf("daemon simulation %+v diverges from direct run %+v", got, want)
	}
}

// TestSimulateStreamEndpoint runs the same bounded simulation twice —
// once materialized, once streamed through the incremental replay —
// and requires every counter to agree, with the streamed response
// declaring its mode.
func TestSimulateStreamEndpoint(t *testing.T) {
	pairings := scheme.Pairings()
	if len(pairings) == 0 {
		t.Fatal("no registered pairings")
	}
	p := pairings[0]
	const blocks = 5000

	_, ts := newTestServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Benchmark: "compress", Pairing: p.Name, Blocks: blocks})
	if status != http.StatusOK {
		t.Fatalf("POST /v1/simulate = %d: %s", status, body)
	}
	var plain SimulateResponse
	decodeInto(t, body, &plain)

	status, body = postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Benchmark: "compress", Pairing: p.Name, Blocks: blocks, Stream: true})
	if status != http.StatusOK {
		t.Fatalf("POST /v1/simulate (stream) = %d: %s", status, body)
	}
	var streamed SimulateResponse
	decodeInto(t, body, &streamed)

	if !streamed.Streamed {
		t.Error("streamed response does not declare streamed mode")
	}
	// Normalize the mode marker, then the two responses must be
	// bit-identical in every counter.
	streamed.Streamed = false
	if streamed != plain {
		t.Errorf("streamed simulation diverges from materialized run:\n  streamed %+v\n  plain    %+v",
			streamed, plain)
	}

	// An ops-bounded stream has no materialized twin, but must still
	// deliver at least the requested horizon.
	status, body = postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Benchmark: "compress", Pairing: p.Name, Stream: true, Ops: 20000})
	if status != http.StatusOK {
		t.Fatalf("POST /v1/simulate (ops) = %d: %s", status, body)
	}
	var byOps SimulateResponse
	decodeInto(t, body, &byOps)
	if byOps.Ops < 20000 {
		t.Errorf("ops-bounded stream delivered %d ops, want >= 20000", byOps.Ops)
	}
	if !byOps.Streamed {
		t.Error("ops-bounded response does not declare streamed mode")
	}
}

// TestSimulatePinsNoTrace posts non-stream simulations of one program
// at several trace lengths: each length walks its own trace, and none
// may stay resident, so the store holds what it held after the first.
func TestSimulatePinsNoTrace(t *testing.T) {
	p := scheme.Pairings()[0]
	s, ts := newTestServer(t, Config{})
	var entries int
	for i, blocks := range []int{2000, 2001, 2002, 2003, 2004} {
		status, body := postJSON(t, ts.URL+"/v1/simulate",
			SimulateRequest{Benchmark: "compress", Pairing: p.Name, Blocks: blocks})
		if status != http.StatusOK {
			t.Fatalf("POST /v1/simulate blocks=%d = %d: %s", blocks, status, body)
		}
		n := s.Driver().CacheEntries()
		if i == 0 {
			entries = n
		} else if n != entries {
			t.Errorf("after blocks=%d the store holds %d entries, %d after the first request",
				blocks, n, entries)
		}
	}
}

// TestRejections maps every malformed input class to its typed sentinel
// kind and HTTP status.
func TestRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBody: 256})
	cases := []struct {
		name   string
		path   string
		body   string
		status int
		kind   string
	}{
		{"malformed json", "/v1/compile", "{", http.StatusBadRequest, "malformed-request"},
		{"unknown field", "/v1/compile", `{"bogus": 1}`, http.StatusBadRequest, "malformed-request"},
		{"trailing data", "/v1/compile", `{"benchmark":"compress"} extra`, http.StatusBadRequest, "malformed-request"},
		{"wrong type", "/v1/encode", `{"benchmark": 7}`, http.StatusBadRequest, "malformed-request"},
		{"oversized body", "/v1/compile", `{"benchmark":"` + strings.Repeat("x", 300) + `"}`,
			http.StatusRequestEntityTooLarge, "body-too-large"},
		{"unknown benchmark", "/v1/compile", `{"benchmark":"doom"}`, http.StatusNotFound, "unknown-benchmark"},
		{"unknown scheme", "/v1/encode", `{"benchmark":"compress","scheme":"lzma"}`,
			http.StatusNotFound, "unknown-scheme"},
		{"unknown decode scheme", "/v1/decode", `{"benchmark":"compress","scheme":"lzma"}`,
			http.StatusNotFound, "unknown-scheme"},
		{"unknown lint scheme", "/v1/lint", `{"benchmark":"compress","schemes":["full","nope"]}`,
			http.StatusNotFound, "unknown-scheme"},
		{"unknown pairing", "/v1/simulate", `{"benchmark":"compress","pairing":"warp-drive"}`,
			http.StatusNotFound, "unknown-pairing"},
		{"negative blocks", "/v1/simulate", `{"benchmark":"compress","pairing":"` + scheme.Pairings()[0].Name + `","blocks":-1}`,
			http.StatusBadRequest, "malformed-request"},
		{"ops without stream", "/v1/simulate", `{"benchmark":"compress","pairing":"` + scheme.Pairings()[0].Name + `","ops":1000}`,
			http.StatusBadRequest, "malformed-request"},
		{"ops over cap", "/v1/simulate", `{"benchmark":"compress","pairing":"` + scheme.Pairings()[0].Name + `","stream":true,"ops":9000000000}`,
			http.StatusBadRequest, "malformed-request"},
		{"blocks and ops", "/v1/simulate", `{"benchmark":"compress","pairing":"` + scheme.Pairings()[0].Name + `","stream":true,"blocks":10,"ops":10}`,
			http.StatusBadRequest, "malformed-request"},
		// The retired replay options are unknown fields in either mode,
		// so a client still sending them fails loudly.
		{"shards without stream", "/v1/simulate", `{"benchmark":"compress","pairing":"` + scheme.Pairings()[0].Name + `","shards":2}`,
			http.StatusBadRequest, "malformed-request"},
		{"negative shards", "/v1/simulate", `{"benchmark":"compress","pairing":"` + scheme.Pairings()[0].Name + `","stream":true,"shards":-1}`,
			http.StatusBadRequest, "malformed-request"},
		{"speculative without stream", "/v1/simulate", `{"benchmark":"compress","pairing":"` + scheme.Pairings()[0].Name + `","speculative":true}`,
			http.StatusBadRequest, "malformed-request"},
		{"shards in stream mode", "/v1/simulate", `{"stream":true,"shards":2}`,
			http.StatusBadRequest, "malformed-request"},
		{"speculative alone", "/v1/simulate", `{"speculative":true}`,
			http.StatusBadRequest, "malformed-request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postRaw(t, ts.URL+tc.path, []byte(tc.body))
			if status != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.status, body)
			}
			var eb errorBody
			decodeInto(t, body, &eb)
			if eb.Kind != tc.kind {
				t.Errorf("kind = %q, want %q (error %q)", eb.Kind, tc.kind, eb.Error)
			}
			if eb.Error == "" {
				t.Error("empty error message")
			}
		})
	}

	t.Run("wrong method", func(t *testing.T) {
		status, body := getJSON(t, ts.URL+"/v1/compile")
		if status != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/compile = %d, want 405 (%s)", status, body)
		}
		var eb errorBody
		decodeInto(t, body, &eb)
		if eb.Kind != "method-not-allowed" {
			t.Errorf("kind = %q, want method-not-allowed", eb.Kind)
		}
	})
}

// TestStatsEndpoint checks the observability surface after real
// traffic: request counters, per-endpoint timers, cache traffic and the
// hit/miss identity.
func TestStatsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		if status, body := postJSON(t, ts.URL+"/v1/encode", EncodeRequest{Benchmark: "compress", Scheme: "full"}); status != http.StatusOK {
			t.Fatalf("encode = %d: %s", status, body)
		}
	}
	status, body := getJSON(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d: %s", status, body)
	}
	var st StatsResponse
	decodeInto(t, body, &st)
	if st.Workers <= 0 {
		t.Errorf("workers = %d, want > 0", st.Workers)
	}
	if st.Cache.Hits+st.Cache.Misses == 0 {
		t.Error("no artifact traffic recorded")
	}
	if st.Cache.Hits == 0 {
		t.Error("repeated encode requests produced no cache hits")
	}
	if st.Cache.HitRate < 0 || st.Cache.HitRate > 1 {
		t.Errorf("hit rate %f outside [0,1]", st.Cache.HitRate)
	}
	if st.Cache.Entries == 0 {
		t.Error("no resident cache entries after builds")
	}
	if got := st.Server.Counters["serve.requests"]; got < 4 {
		t.Errorf("serve.requests = %d, want >= 4", got)
	}
	if ts, ok := st.Server.Stages["serve.encode"]; !ok || ts.Count != 3 {
		t.Errorf("serve.encode timer = %+v, want count 3", ts)
	}
	if srv.Stats().Counter("serve.errors").Value() != 0 {
		t.Error("error counter moved on clean traffic")
	}
}

// TestConcurrentRequests hammers one bounded-store server from many
// goroutines: every response OK, no server-side errors, and the
// single-flight cache keeps the error counter and response payloads
// consistent under eviction pressure.
func TestConcurrentRequests(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Driver: core.NewDriverWithCache(0, 16),
	})
	const goroutines = 16
	const perG = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var path string
				var body any
				if (g+i)%2 == 0 {
					path, body = "/v1/encode", EncodeRequest{Benchmark: "compress", Scheme: "full"}
				} else {
					path, body = "/v1/decode", DecodeRequest{Benchmark: "compress", Scheme: "byte"}
				}
				data, err := json.Marshal(body)
				if err != nil {
					errs[g] = err
					return
				}
				resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
				if err != nil {
					errs[g] = err
					return
				}
				out, err := io.ReadAll(resp.Body)
				if cerr := resp.Body.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					errs[g] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[g] = fmt.Errorf("%s = %d: %s", path, resp.StatusCode, out)
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
	if got := srv.Stats().Counter("serve.errors").Value(); got != 0 {
		t.Errorf("serve.errors = %d, want 0", got)
	}
	if got := srv.Stats().Counter("serve.requests").Value(); got != goroutines*perG {
		t.Errorf("serve.requests = %d, want %d", got, goroutines*perG)
	}
}
