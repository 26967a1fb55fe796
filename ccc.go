// Package ccc (Cached Code Compression) is the public API of this
// reproduction of Larin & Conte, "Compiler-Driven Cached Code Compression
// Schemes for Embedded ILP Processors" (MICRO 1999).
//
// The package re-exports the toolchain's stable surface:
//
//   - compiling benchmark stand-ins or custom workload profiles
//     (CompileBenchmark, CompileProfile);
//   - the encoding schemes (base / byte / six stream configurations /
//     full-op Huffman / tailored ISA) and their program images with
//     Address Translation Tables;
//   - dynamic traces (profile-driven or interpreted) and the three IFetch
//     simulators (Base, Compressed, Tailored) with the paper's Table 1
//     cycle model;
//   - one experiment per figure of the paper's evaluation (Figure5,
//     Figure7, Figure10, Figure13, Figure14 on Suite).
//
// A minimal end-to-end run:
//
//	c, _ := ccc.CompileBenchmark("compress")
//	base, _ := c.Image("base")
//	full, _ := c.Image("full")
//	fmt.Printf("full scheme: %.1f%% of original size\n", 100*full.Ratio(base))
//
//	tr, _ := c.Trace(100000)
//	sim, _ := ccc.NewSim(ccc.OrgCompressed, ccc.DefaultConfig(ccc.OrgCompressed), full, c.Prog)
//	res, _ := sim.Run(tr)
//	fmt.Printf("delivered IPC: %.3f\n", res.IPC())
package ccc

import (
	"repro/internal/bitio"
	"repro/internal/cache"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/huffman"
	"repro/internal/image"
	"repro/internal/scheme"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Benchmarks are the eight SPECint95 benchmark names of the paper's
// evaluation.
var Benchmarks = workload.Benchmarks

// Compilation pipeline.
type (
	// Compiled is a program pushed through the compiler substrate; see
	// core.Compiled.
	Compiled = core.Compiled
	// Options parameterizes an experiment suite.
	Options = core.Options
	// Suite runs the paper's figures over compiled benchmarks.
	Suite = core.Suite
	// Profile is a synthetic-benchmark generation profile.
	Profile = workload.Profile
	// Driver is the concurrent compilation driver with its
	// content-addressed artifact cache; see core.Driver.
	Driver = core.Driver
	// Job is one (benchmark, scheme) build point.
	Job = core.Job
	// Built is one completed build job.
	Built = core.Built
	// Image is an encoded program image with its Address Translation
	// Table; see Compiled.Image.
	Image = image.Image
)

// NewDriver returns a compilation driver with the given worker-pool
// width (<= 0 selects GOMAXPROCS).
func NewDriver(workers int) *Driver { return core.NewDriver(workers) }

// NewDriverWithCache returns a driver whose artifact store is sharded
// and bounded: at most capacity cached artifacts across shards, evicted
// least-recently-used (capacity <= 0 keeps the store unbounded). This
// is the long-running service configuration; see cmd/tepicd.
func NewDriverWithCache(workers, shards, capacity int) *Driver {
	return core.NewDriverWithCache(workers, shards, capacity)
}

// NewSuiteWithDriver creates an experiment suite on an existing driver,
// sharing its worker pool and artifact cache.
func NewSuiteWithDriver(opt Options, d *Driver) *Suite {
	return core.NewSuiteWithDriver(opt, d)
}

// CrossJobs builds the benchmarks × schemes job matrix (nil selects the
// paper's eight benchmarks / every scheme).
func CrossJobs(benchmarks, schemes []string) []Job {
	return core.CrossJobs(benchmarks, schemes)
}

// CompileBenchmark compiles one of the eight benchmark stand-ins.
func CompileBenchmark(name string) (*Compiled, error) {
	return core.CompileBenchmark(name)
}

// CompileProfile compiles a custom workload profile.
func CompileProfile(p Profile) (*Compiled, error) { return core.CompileProfile(p) }

// ProfileFor returns the calibrated profile for a benchmark name.
func ProfileFor(name string) (Profile, bool) { return workload.ProfileFor(name) }

// NewSuite creates an experiment suite.
func NewSuite(opt Options) *Suite { return core.NewSuite(opt) }

// SchemeNames lists every encoding scheme.
func SchemeNames() []string { return core.SchemeNames() }

// IFetch simulation.
type (
	// Org selects an IFetch organization (OrgBase, OrgCompressed,
	// OrgTailored, OrgCodePack, or any organization registered through
	// cache.RegisterOrg).
	Org = cache.Org
	// Config is the cache geometry.
	Config = cache.Config
	// Result carries one simulation's metrics.
	Result = cache.Result
	// Sim is a trace-driven IFetch simulation.
	Sim = cache.Sim
	// Machine is the TEPIC interpreter.
	Machine = emu.Machine
	// PredictorKind names a registered branch-direction predictor.
	PredictorKind = cache.PredictorKind
	// Pairing is one registered (encoding scheme, organization) point.
	Pairing = scheme.Pairing
	// SweepPoint is one geometry/predictor sweep configuration.
	SweepPoint = core.SweepPoint
	// SweepRow is one completed sweep point.
	SweepRow = core.SweepRow
)

// The IFetch organizations: the paper's cache study (Figures 11–13) plus
// the §6 CodePack model.
const (
	OrgBase       = cache.OrgBase
	OrgCompressed = cache.OrgCompressed
	OrgTailored   = cache.OrgTailored
	OrgCodePack   = cache.OrgCodePack
)

// The built-in direction predictors.
const (
	PredictorBimodal = cache.PredictorBimodal
	PredictorGShare  = cache.PredictorGShare
	PredictorPAs     = cache.PredictorPAs
)

// Pairings lists every registered (encoding, organization) pairing.
func Pairings() []Pairing { return scheme.Pairings() }

// PairingByName resolves a pairing label case-insensitively.
func PairingByName(name string) (Pairing, bool) { return scheme.PairingByName(name) }

// ParsePredictor validates a predictor name; "" selects the default
// (bimodal).
func ParsePredictor(name string) (PredictorKind, error) { return cache.ParsePredictor(name) }

// DefaultSweepPoints enumerates the registry-driven default sweep grid
// for a pairing.
func DefaultSweepPoints(p Pairing) []SweepPoint { return core.DefaultSweepPoints(p) }

// SweepTable renders sweep rows for terminals.
func SweepTable(rows []SweepRow) interface{ Render() string } { return core.SweepTable(rows) }

// SweepJSON renders sweep rows as an indented JSON report.
func SweepJSON(rows []SweepRow) ([]byte, error) { return core.SweepJSON(rows) }

// NewOrgSim builds an IFetch simulator for any registered organization;
// rom is required exactly when the organization's spec sets NeedsROM.
var NewOrgSim = cache.NewOrgSim

// DefaultConfig returns the paper's cache configuration for an
// organization (16 KB 2-way; 20 KB effective for Base).
func DefaultConfig(org Org) Config { return cache.DefaultConfig(org) }

// NewSim builds an IFetch simulator; the image must be encoded under the
// scheme matching the organization.
var NewSim = cache.NewSim

// NewMachine returns a fresh TEPIC interpreter.
func NewMachine() *Machine { return emu.NewMachine() }

// Batched decode. The lane-parallel kernel decodes independent
// byte-aligned blocks MaxLanes at a time with interleaved bit cursors;
// every Huffman scheme's encoder also implements BatchDecoder, and a
// compiled program exposes a memoized per-scheme DecodePlan
// (Compiled.DecodePlan, Compiled.DecodeSymbolsParallel) plus the
// three-tier throughput measurement (Compiled.MeasureDecodeThroughput).
type (
	// LaneDecoder is the batched Huffman kernel beneath the per-symbol
	// decoders; see huffman.LaneDecoder.
	LaneDecoder = huffman.LaneDecoder
	// Lane is one stream's decode state within a LaneDecoder run.
	Lane = huffman.Lane
	// Cursor is the multi-cursor bit reader the kernel interleaves.
	Cursor = bitio.Cursor
	// Reader is the sequential bit reader of the per-symbol decode path.
	Reader = bitio.Reader
	// BatchDecoder is the allocation-free batch decode face every
	// Huffman scheme implements; see compress.BatchDecoder.
	BatchDecoder = compress.BatchDecoder
	// SymbolDecoder is the per-symbol decode face the throughput
	// measurement's fast tier drives.
	SymbolDecoder = compress.SymbolDecoder
	// DecodePlan is a scheme's prebuilt batch-decode geometry: the lane
	// kernel plus flattened block addresses, memoized in the artifact
	// store; see core.DecodePlan.
	DecodePlan = core.DecodePlan
	// DecodeThroughput is one scheme's measured reference/fast/batch
	// decode rates with their speedup ratios.
	DecodeThroughput = core.DecodeThroughput
)

// MaxLanes is the width of the lane-parallel decode kernel.
const MaxLanes = huffman.MaxLanes

// ErrShortBatchOutput reports a batch decode output slice smaller than
// the symbol count the block queue implies.
var ErrShortBatchOutput = compress.ErrShortBatchOutput

// NewLaneDecoder builds a lane kernel over a per-symbol table schedule.
var NewLaneDecoder = huffman.NewLaneDecoder

// NewReader returns a heap-allocated sequential bit reader over data.
var NewReader = bitio.NewReader

// MakeReader returns a Reader over data by value, for embedding in
// caller-owned state without an allocation.
var MakeReader = bitio.MakeReader

// Trace streaming.
type (
	// Stream delivers a dynamic trace as a bounded sequence of reusable
	// chunks; see trace.Stream for the lifecycle contract.
	Stream = trace.Stream
	// Chunk is one run of streamed trace events.
	Chunk = trace.Chunk
	// MemUsage is a point-in-time heap snapshot (see emu.MemSnapshot).
	MemUsage = emu.MemUsage
)

// NewSliceStream adapts a materialized trace into the Stream interface,
// cutting it into chunkEvents-sized chunks (<= 0 selects the default).
var NewSliceStream = trace.NewSliceStream

// StochasticStream streams maxBlocks events out of the stochastic
// walker without materializing the trace.
var StochasticStream = emu.StochasticStream

// StochasticStreamOps streams events until at least maxOps dynamic
// operations have been delivered.
var StochasticStreamOps = emu.StochasticStreamOps

// MemSnapshot forces a GC and returns the current heap usage — the
// instrument behind the streaming pipeline's bounded-memory assertions.
var MemSnapshot = emu.MemSnapshot
