// Package serve exposes the whole pipeline — compile, encode, lint,
// simulate, decode — as a long-running HTTP/JSON service on top of the
// concurrent compilation driver. Every handler resolves its artifacts
// through the driver's bounded, LRU-evicting content-addressed store,
// so concurrent requests for one program share a single build
// (the access-pattern-skew insight: a few hot programs dominate service
// traffic, and their artifacts stay resident while the cold tail is
// evicted and rebuilt on demand).
//
// The API surface:
//
//	POST /v1/compile   {"benchmark": "gcc"}
//	POST /v1/encode    {"benchmark": "gcc", "scheme": "full"}
//	POST /v1/decode    {"benchmark": "gcc", "scheme": "full"}
//	POST /v1/lint      {"benchmark": "gcc", "schemes": ["full"]}
//	POST /v1/simulate  {"benchmark": "gcc", "pairing": "full/compressed", "blocks": 50000}
//	GET  /v1/stats
//	GET  /healthz
//
// Request rejections carry a machine-readable error body
// {"error": ..., "kind": ...} whose kind names the wrapped sentinel
// (errors.go) and whose HTTP status follows from it: 400 malformed,
// 413 oversized, 404 unknown name, 405 wrong method.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/workload"
)

// DefaultMaxBody is the request-body byte bound when Config leaves it 0.
const DefaultMaxBody = 1 << 20

// MaxTraceBlocks bounds the trace length a /v1/simulate request may ask
// for, so one request cannot pin the service on a billion-op walk.
const MaxTraceBlocks = 2_000_000

// MaxTraceOps bounds the dynamic-operation horizon of a streamed
// /v1/simulate request. Streaming replays hold only a chunk working
// set, so the cap can sit far above MaxTraceBlocks' event horizon —
// it bounds service time, not memory.
const MaxTraceOps = 2_000_000_000

// Config parameterizes a Server.
type Config struct {
	// Driver runs the builds; nil creates a GOMAXPROCS-wide driver with
	// an unbounded store.
	Driver *core.Driver
	// MaxBody bounds request bodies in bytes; 0 selects DefaultMaxBody.
	MaxBody int64
}

// Server is the compression-as-a-service front end: stateless handlers
// over a shared driver. Safe for concurrent use; one Server serves any
// number of connections.
type Server struct {
	drv     *core.Driver
	obs     *stats.Registry
	maxBody int64
	start   time.Time
	mux     *http.ServeMux
}

// New builds a Server and wires its routes.
func New(cfg Config) *Server {
	drv := cfg.Driver
	if drv == nil {
		drv = core.NewDriver(0)
	}
	maxBody := cfg.MaxBody
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	s := &Server{
		drv:     drv,
		obs:     stats.NewRegistry(),
		maxBody: maxBody,
		start:   time.Now(),
		mux:     http.NewServeMux(),
	}
	s.mux.Handle("/v1/compile", s.route("compile", http.MethodPost, s.handleCompile))
	s.mux.Handle("/v1/encode", s.route("encode", http.MethodPost, s.handleEncode))
	s.mux.Handle("/v1/decode", s.route("decode", http.MethodPost, s.handleDecode))
	s.mux.Handle("/v1/lint", s.route("lint", http.MethodPost, s.handleLint))
	s.mux.Handle("/v1/simulate", s.route("simulate", http.MethodPost, s.handleSimulate))
	s.mux.Handle("/v1/stats", s.route("stats", http.MethodGet, s.handleStats))
	s.mux.Handle("/healthz", s.route("healthz", http.MethodGet, s.handleHealthz))
	return s
}

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Driver returns the server's compilation driver.
func (s *Server) Driver() *core.Driver { return s.drv }

// Stats returns the server-side observability registry: per-endpoint
// latency timers ("serve.compile", ...) and the request/error/
// write-error counters.
func (s *Server) Stats() *stats.Registry { return s.obs }

// errorBody is the JSON shape of every rejected request.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// statusFor maps a handler error to its HTTP status through the
// sentinel taxonomy.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBodyTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrMalformedRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownBenchmark),
		errors.Is(err, ErrUnknownScheme),
		errors.Is(err, ErrUnknownPairing):
		return http.StatusNotFound
	case errors.Is(err, ErrMethod):
		return http.StatusMethodNotAllowed
	}
	return http.StatusInternalServerError
}

// route wraps one endpoint: method gate, per-endpoint latency timer,
// request/error counters, and uniform JSON rendering of results and
// sentinel-mapped errors. The handler bodies run on net/http's
// per-connection goroutines; all fan-out beneath them goes through the
// driver's bounded worker pool.
//
//tepic:pool
func (s *Server) route(name, method string, fn func(r *http.Request) (any, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.obs.Counter("serve.requests").Add(1)
		var v any
		var err error
		terr := s.obs.Timer("serve." + name).Time(func() error {
			if r.Method != method {
				w.Header().Set("Allow", method)
				return fmt.Errorf("%w: %s needs %s, got %s", ErrMethod, r.URL.Path, method, r.Method)
			}
			v, err = fn(r)
			return err
		})
		if terr != nil {
			s.obs.Counter("serve.errors").Add(1)
			s.writeJSON(w, statusFor(terr), errorBody{Error: terr.Error(), Kind: kindOf(terr)})
			return
		}
		s.writeJSON(w, http.StatusOK, v)
	})
}

// writeJSON renders one response. A failed write (client gone) is
// counted rather than propagated: the connection is already beyond
// repair and net/http discards handler errors anyway.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.obs.Counter("serve.write_errors").Add(1)
	}
}

// decodeRequest reads and strictly decodes one JSON request body:
// bounded size, unknown fields rejected, trailing data rejected. Every
// failure wraps ErrBodyTooLarge or ErrMalformedRequest.
func decodeRequest(body io.Reader, limit int64, dst any) error {
	data, err := io.ReadAll(io.LimitReader(body, limit+1))
	if err != nil {
		return fmt.Errorf("%w: reading body: %v", ErrMalformedRequest, err)
	}
	if int64(len(data)) > limit {
		return fmt.Errorf("%w: body exceeds %d bytes", ErrBodyTooLarge, limit)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformedRequest, err)
	}
	if dec.More() {
		return fmt.Errorf("%w: trailing data after JSON value", ErrMalformedRequest)
	}
	return nil
}

// validator is one request type's semantic check, run after JSON
// decoding; the fuzz harness drives every implementation.
type validator interface{ validate() error }

// parseRequest decodes and validates one request body.
func parseRequest(body io.Reader, limit int64, dst validator) error {
	if err := decodeRequest(body, limit, dst); err != nil {
		return err
	}
	return dst.validate()
}

func checkBenchmark(name string) error {
	if _, ok := workload.ProfileFor(name); !ok {
		return fmt.Errorf("%w: %q", ErrUnknownBenchmark, name)
	}
	return nil
}

func checkScheme(name string) error {
	if _, ok := scheme.Lookup(name); !ok {
		return fmt.Errorf("%w: %q", ErrUnknownScheme, name)
	}
	return nil
}

// ---------------------------------------------------------------------
// /v1/compile

// CompileRequest asks for one benchmark compilation.
type CompileRequest struct {
	Benchmark string `json:"benchmark"`
}

func (r *CompileRequest) validate() error { return checkBenchmark(r.Benchmark) }

// CompileResponse summarizes the scheduled program.
type CompileResponse struct {
	Benchmark  string `json:"benchmark"`
	ContentKey string `json:"content_key"`
	Blocks     int    `json:"blocks"`
	Ops        int    `json:"ops"`
	MOPs       int    `json:"mops"`
	Functions  int    `json:"functions"`
}

//tepic:pool
func (s *Server) handleCompile(r *http.Request) (any, error) {
	var req CompileRequest
	if err := parseRequest(r.Body, s.maxBody, &req); err != nil {
		return nil, err
	}
	c, err := s.drv.CompileBenchmark(req.Benchmark)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", req.Benchmark, err)
	}
	return CompileResponse{
		Benchmark:  req.Benchmark,
		ContentKey: c.ContentKey(),
		Blocks:     len(c.Prog.Blocks),
		Ops:        c.Prog.TotalOps(),
		MOPs:       c.Prog.TotalMOPs(),
		Functions:  len(c.Prog.FuncEntries),
	}, nil
}

// ---------------------------------------------------------------------
// /v1/encode

// EncodeRequest asks for one (benchmark, scheme) image build.
type EncodeRequest struct {
	Benchmark string `json:"benchmark"`
	Scheme    string `json:"scheme"`
}

func (r *EncodeRequest) validate() error {
	if err := checkBenchmark(r.Benchmark); err != nil {
		return err
	}
	return checkScheme(r.Scheme)
}

// EncodeResponse summarizes the built image.
type EncodeResponse struct {
	Benchmark  string  `json:"benchmark"`
	Scheme     string  `json:"scheme"`
	ContentKey string  `json:"content_key"`
	Blocks     int     `json:"blocks"`
	CodeBytes  int     `json:"code_bytes"`
	ATTBytes   int     `json:"att_bytes"`
	TotalBytes int     `json:"total_bytes"`
	Ratio      float64 `json:"ratio"` // scheme code bytes / base code bytes
}

//tepic:pool
func (s *Server) handleEncode(r *http.Request) (any, error) {
	var req EncodeRequest
	if err := parseRequest(r.Body, s.maxBody, &req); err != nil {
		return nil, err
	}
	c, err := s.drv.CompileBenchmark(req.Benchmark)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", req.Benchmark, err)
	}
	im, err := c.Image(req.Scheme)
	if err != nil {
		return nil, fmt.Errorf("encode %s/%s: %w", req.Benchmark, req.Scheme, err)
	}
	base, err := c.Image(scheme.BaseName)
	if err != nil {
		return nil, fmt.Errorf("encode %s/base: %w", req.Benchmark, err)
	}
	attBytes := 0
	if im.ATT != nil {
		attBytes = im.ATT.CompressedBytes
	}
	return EncodeResponse{
		Benchmark:  req.Benchmark,
		Scheme:     req.Scheme,
		ContentKey: c.ContentKey(),
		Blocks:     len(im.Blocks),
		CodeBytes:  im.CodeBytes,
		ATTBytes:   attBytes,
		TotalBytes: im.TotalBytes(),
		Ratio:      im.Ratio(base),
	}, nil
}

// ---------------------------------------------------------------------
// /v1/decode

// DecodeRequest asks for a full decode of one (benchmark, scheme)
// image back to operations.
type DecodeRequest struct {
	Benchmark string `json:"benchmark"`
	Scheme    string `json:"scheme"`
}

func (r *DecodeRequest) validate() error {
	if err := checkBenchmark(r.Benchmark); err != nil {
		return err
	}
	return checkScheme(r.Scheme)
}

// DecodeResponse carries the decode digest: the operation count, the
// Huffman symbols the decode consumed, and the content hash of every
// decoded operation word in image placement order. Two decoders agree bit-for-bit exactly when their OpsHash
// values match — this is what the service round-trip tests and the
// tepicbench -serve -check audit compare against the direct driver
// path.
type DecodeResponse struct {
	Benchmark string `json:"benchmark"`
	Scheme    string `json:"scheme"`
	Ops       int    `json:"ops"`
	Symbols   int64  `json:"symbols"` // Huffman symbols consumed; 0 for table-free schemes
	OpsHash   string `json:"ops_hash"`
}

//tepic:pool
func (s *Server) handleDecode(r *http.Request) (any, error) {
	var req DecodeRequest
	if err := parseRequest(r.Body, s.maxBody, &req); err != nil {
		return nil, err
	}
	c, err := s.drv.CompileBenchmark(req.Benchmark)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", req.Benchmark, err)
	}
	enc, err := c.Encoder(req.Scheme)
	if err != nil {
		return nil, fmt.Errorf("encoder %s/%s: %w", req.Benchmark, req.Scheme, err)
	}
	im, err := c.Image(req.Scheme)
	if err != nil {
		return nil, fmt.Errorf("encode %s/%s: %w", req.Benchmark, req.Scheme, err)
	}
	sum, err := DecodeImage(im, enc)
	if err != nil {
		return nil, fmt.Errorf("decode %s/%s: %w", req.Benchmark, req.Scheme, err)
	}
	return DecodeResponse{
		Benchmark: req.Benchmark,
		Scheme:    req.Scheme,
		Ops:       sum.Ops,
		Symbols:   sum.Symbols,
		OpsHash:   sum.OpsHash,
	}, nil
}

// ---------------------------------------------------------------------
// /v1/lint

// LintRequest asks for the static verifier over one benchmark's
// encoding artifacts; an empty scheme list verifies every scheme.
type LintRequest struct {
	Benchmark string   `json:"benchmark"`
	Schemes   []string `json:"schemes,omitempty"`
}

func (r *LintRequest) validate() error {
	if err := checkBenchmark(r.Benchmark); err != nil {
		return err
	}
	for _, sc := range r.Schemes {
		if err := checkScheme(sc); err != nil {
			return err
		}
	}
	return nil
}

// LintResponse carries the verifier's report.
type LintResponse struct {
	Benchmark string        `json:"benchmark"`
	Errors    int           `json:"errors"`
	Warnings  int           `json:"warnings"`
	Diags     []verify.Diag `json:"diagnostics"`
}

//tepic:pool
func (s *Server) handleLint(r *http.Request) (any, error) {
	var req LintRequest
	if err := parseRequest(r.Body, s.maxBody, &req); err != nil {
		return nil, err
	}
	c, err := s.drv.CompileBenchmark(req.Benchmark)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", req.Benchmark, err)
	}
	rep, err := c.Lint(req.Schemes)
	if err != nil {
		return nil, fmt.Errorf("lint %s: %w", req.Benchmark, err)
	}
	rep.Sort()
	return LintResponse{
		Benchmark: req.Benchmark,
		Errors:    rep.Errors(),
		Warnings:  rep.Warnings(),
		Diags:     rep.Diags,
	}, nil
}

// ---------------------------------------------------------------------
// /v1/simulate

// SimulateRequest asks for one trace-driven IFetch simulation at the
// pairing's default geometry. Blocks bounds the trace length (0 selects
// the benchmark profile's default, capped at MaxTraceBlocks). Every
// simulation streams: Sim.RunStream has the walker fill each bounded
// chunk as it asks for it, so no trace is materialized or cached. Stream
// selects the long-horizon mode, which allows Ops to bound the walk by
// dynamic operation count (capped at MaxTraceOps) instead of Blocks, and
// is echoed as the response's Streamed; for the same Blocks bound both
// modes return the same counters. Like every request type it rejects
// unknown fields, so a client asking for a replay option this server
// does not offer gets a 400 rather than a silent default.
type SimulateRequest struct {
	Benchmark string `json:"benchmark"`
	Pairing   string `json:"pairing"`
	Blocks    int    `json:"blocks,omitempty"`
	Stream    bool   `json:"stream,omitempty"`
	Ops       int64  `json:"ops,omitempty"`
}

func (r *SimulateRequest) validate() error {
	if err := checkBenchmark(r.Benchmark); err != nil {
		return err
	}
	if _, ok := scheme.PairingByName(r.Pairing); !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPairing, r.Pairing)
	}
	if r.Blocks < 0 || r.Blocks > MaxTraceBlocks {
		return fmt.Errorf("%w: blocks %d outside [0, %d]", ErrMalformedRequest, r.Blocks, MaxTraceBlocks)
	}
	if r.Ops != 0 && !r.Stream {
		return fmt.Errorf("%w: ops bound requires stream mode", ErrMalformedRequest)
	}
	if r.Ops < 0 || r.Ops > MaxTraceOps {
		return fmt.Errorf("%w: ops %d outside [0, %d]", ErrMalformedRequest, r.Ops, MaxTraceOps)
	}
	if r.Ops != 0 && r.Blocks != 0 {
		return fmt.Errorf("%w: blocks and ops bounds are mutually exclusive", ErrMalformedRequest)
	}
	return nil
}

// SimulateResponse carries the simulation's counters.
type SimulateResponse struct {
	Benchmark    string  `json:"benchmark"`
	Pairing      string  `json:"pairing"`
	TraceBlocks  int     `json:"trace_blocks"`
	Cycles       int64   `json:"cycles"`
	Ops          int64   `json:"ops"`
	MOPs         int64   `json:"mops"`
	IPC          float64 `json:"ipc"`
	BlockFetches int64   `json:"block_fetches"`
	CacheLookups int64   `json:"cache_lookups"`
	CacheMisses  int64   `json:"cache_misses"`
	LinesFetched int64   `json:"lines_fetched"`
	BufferHits   int64   `json:"buffer_hits"`
	Mispredicts  int64   `json:"mispredicts"`
	BusBeats     int64   `json:"bus_beats"`
	BitFlips     int64   `json:"bit_flips"`
	BytesFetched int64   `json:"bytes_fetched"`
	ATBHitRate   float64 `json:"atb_hit_rate"`
	Streamed     bool    `json:"streamed,omitempty"`
}

//tepic:pool
func (s *Server) handleSimulate(r *http.Request) (any, error) {
	var req SimulateRequest
	if err := parseRequest(r.Body, s.maxBody, &req); err != nil {
		return nil, err
	}
	p, _ := scheme.PairingByName(req.Pairing)
	c, err := s.drv.CompileBenchmark(req.Benchmark)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", req.Benchmark, err)
	}
	sim, err := c.SimFor(p, cache.DefaultConfig(p.Org))
	if err != nil {
		return nil, fmt.Errorf("simulate %s/%s: %w", req.Benchmark, req.Pairing, err)
	}

	// The walker fills each chunk as the replay asks for it, so no trace
	// is materialized or cached in either mode.
	var st trace.Stream
	if req.Ops > 0 {
		st, err = c.StreamTraceOps(req.Ops, 0)
	} else {
		st, err = c.StreamTrace(req.Blocks, 0)
	}
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", req.Benchmark, err)
	}
	res, err := sim.RunStream(st)
	if err != nil {
		return nil, fmt.Errorf("simulate %s/%s: %w", req.Benchmark, req.Pairing, err)
	}
	return SimulateResponse{
		Benchmark:    req.Benchmark,
		Pairing:      req.Pairing,
		TraceBlocks:  int(res.BlockFetches),
		Cycles:       res.Cycles,
		Ops:          res.Ops,
		MOPs:         res.MOPs,
		IPC:          res.IPC(),
		BlockFetches: res.BlockFetches,
		CacheLookups: res.CacheLookups,
		CacheMisses:  res.CacheMisses,
		LinesFetched: res.LinesFetched,
		BufferHits:   res.BufferHits,
		Mispredicts:  res.Mispredicts,
		BusBeats:     res.BusBeats,
		BitFlips:     res.BitFlips,
		BytesFetched: res.BytesFetched,
		ATBHitRate:   res.ATBHitRate,
		Streamed:     req.Stream,
	}, nil
}

// ---------------------------------------------------------------------
// /v1/stats and /healthz

// CacheStats is the artifact store's traffic summary.
type CacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int     `json:"entries"`
	HitRate   float64 `json:"hit_rate"`
}

// StatsResponse is the service observability snapshot: the driver's
// stage timers and cache traffic plus the server's per-endpoint
// latency timers and request counters.
type StatsResponse struct {
	UptimeMS float64        `json:"uptime_ms"`
	Workers  int            `json:"workers"`
	Cache    CacheStats     `json:"cache"`
	Driver   stats.Snapshot `json:"driver"`
	Server   stats.Snapshot `json:"server"`
}

//tepic:pool
func (s *Server) handleStats(*http.Request) (any, error) {
	snap := s.drv.Stats().Snapshot()
	return StatsResponse{
		UptimeMS: float64(time.Since(s.start)) / float64(time.Millisecond),
		Workers:  s.drv.Workers(),
		Cache: CacheStats{
			Hits:      snap.Counters["artifact.hit"],
			Misses:    snap.Counters["artifact.miss"],
			Evictions: snap.Counters["artifact.eviction"],
			Entries:   s.drv.CacheEntries(),
			HitRate:   s.drv.CacheHitRate(),
		},
		Driver: snap,
		Server: s.obs.Snapshot(),
	}, nil
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status string `json:"status"`
}

//tepic:pool
func (s *Server) handleHealthz(*http.Request) (any, error) {
	return HealthResponse{Status: "ok"}, nil
}
