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
//	baseSim, _ := ccc.NewSim(ccc.OrgBase, ccc.DefaultConfig(ccc.OrgBase), base, c.Prog)
//	fullSim, _ := ccc.NewSim(ccc.OrgCompressed, ccc.DefaultConfig(ccc.OrgCompressed), full, c.Prog)
//	st, _ := c.StreamTrace(100000, 0)
//	res, _ := ccc.RunStream(st, baseSim, fullSim) // one walk, both simulators
//	fmt.Printf("delivered IPC: base %.3f, full %.3f\n", res[0].IPC(), res[1].IPC())
package ccc

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
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
	// Org selects an IFetch organization: one of OrgBase,
	// OrgCompressed, OrgTailored and OrgCodePack, the rows of
	// internal/cache's OrgSpec table.
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
	// Pairing is one (encoding scheme, organization) point.
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

// Pairings lists every (encoding, organization) pairing in table order.
func Pairings() []Pairing { return scheme.Pairings() }

// PairingByName resolves a pairing label case-insensitively.
func PairingByName(name string) (Pairing, bool) { return scheme.PairingByName(name) }

// ParsePredictor validates a predictor name; "" selects the default
// (bimodal).
func ParsePredictor(name string) (PredictorKind, error) { return cache.ParsePredictor(name) }

// DefaultSweepPoints enumerates the table-driven default sweep grid for
// a pairing.
func DefaultSweepPoints(p Pairing) []SweepPoint { return core.DefaultSweepPoints(p) }

// SweepTable renders sweep rows for terminals.
func SweepTable(rows []SweepRow) interface{ Render() string } { return core.SweepTable(rows) }

// SweepJSON renders sweep rows as an indented JSON report.
func SweepJSON(rows []SweepRow) ([]byte, error) { return core.SweepJSON(rows) }

// DefaultConfig returns the paper's cache configuration for an
// organization (16 KB 2-way; 20 KB effective for Base).
func DefaultConfig(org Org) Config { return cache.DefaultConfig(org) }

// NewSim builds an IFetch simulator; the image must be encoded under the
// scheme matching the organization.
var NewSim = cache.NewSim

// RunStream replays one trace stream through several simulators at
// once, validating and walking each chunk once; see cache.RunStream.
var RunStream = cache.RunStream

// NewMachine returns a fresh TEPIC interpreter.
func NewMachine() *Machine { return emu.NewMachine() }

// DecodePlan is a scheme's prebuilt batch-decode geometry: the
// scheme's Huffman kernel, whose four-lane DecodeBlocks engine it
// drives, plus flattened block addresses, memoized in the artifact store
// (Compiled.DecodePlan); see core.DecodePlan. The three-tier decode
// throughput measurement is Compiled.MeasureDecodeThroughput.
type DecodePlan = core.DecodePlan

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

// MemSnapshot forces a GC and returns the current heap usage — the
// instrument behind the streaming pipeline's bounded-memory assertions.
var MemSnapshot = emu.MemSnapshot
