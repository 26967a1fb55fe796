// Package core is the paper's toolchain as an orchestration API: it wires
// the compiler substrate (workload generation, register allocation, VLIW
// scheduling), the encoding schemes (baseline, the three Huffman alphabet
// compositions, the tailored ISA), the image/ATT builder, the trace
// generators, and the IFetch simulators into single calls — and defines
// one experiment function per figure/table of the paper's evaluation
// (figures.go).
package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/compress"
	"repro/internal/emu"
	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/scheme"
	"repro/internal/tailor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SchemeNames lists every encoding scheme in report order: the
// baseline, byte-based Huffman, the six stream configurations, whole-op
// Huffman, and the tailored ISA.
func SchemeNames() []string { return scheme.Names() }

// Figure5Schemes are the schemes the paper's Figure 5 plots: byte-wise,
// the two reported stream configurations, whole-op Huffman and tailored.
var Figure5Schemes = []string{"byte", "stream", "stream_1", "full", "tailored"}

// Compiled is a program pushed through the compiler substrate. Artifact
// builders (Encoder, Image, DecodePlan) are safe for concurrent use and
// memoize through the attached Driver's content-addressed store: each
// artifact builds once while it stays resident, identical artifacts are
// shared across compilations, and stage latencies are recorded. Traces
// are not artifacts: Trace and StreamTrace walk afresh on every call.
// Standalone compilations carry a private driver.
type Compiled struct {
	Name    string
	IR      *ir.Program
	Prog    *sched.Program
	Alloc   regalloc.Result
	Profile *workload.Profile // nil for hand-written programs

	drv *Driver // the artifact store every builder memoizes through

	keyOnce sync.Once
	key     string // content hash of Prog (see programHash)

	built sync.Map // scheme names whose images were requested, for Verify
}

// contentKey returns (computing once) the program's content hash.
func (c *Compiled) contentKey() string {
	c.keyOnce.Do(func() { c.key = programHash(c.Prog) })
	return c.key
}

// ContentKey exposes the program's content hash — the prefix of every
// artifact-cache key derived from this compilation (see key.go). The
// service layer returns it to clients so identical programs are
// recognizably identical across requests.
func (c *Compiled) ContentKey() string { return c.contentKey() }

// CompileBenchmark generates and compiles one of the eight SPECint95
// benchmark stand-ins on a private driver.
func CompileBenchmark(name string) (*Compiled, error) {
	return NewDriver(0).CompileBenchmark(name)
}

// CompileProfile generates and compiles a program from a profile on a
// private driver.
func CompileProfile(prof workload.Profile) (*Compiled, error) {
	return NewDriver(0).Compile(prof)
}

// CompileBenchmarkSpeculative compiles a benchmark with the
// treegion-style speculative hoisting pass (sched.Speculate) between
// register allocation and scheduling, returning the hoisted-op count
// alongside the compilation.
func CompileBenchmarkSpeculative(name string) (*Compiled, int, error) {
	prof, ok := workload.ProfileFor(name)
	if !ok {
		return nil, 0, fmt.Errorf("core: unknown benchmark %q", name)
	}
	p, err := workload.Generate(prof)
	if err != nil {
		return nil, 0, err
	}
	alloc, err := regalloc.Allocate(p)
	if err != nil {
		return nil, 0, err
	}
	hoisted, err := sched.Speculate(p)
	if err != nil {
		return nil, 0, err
	}
	sp, err := sched.Schedule(p)
	if err != nil {
		return nil, 0, err
	}
	c := newCompiled(NewDriver(0), p, sp, alloc)
	c.Profile = &prof
	return c, hoisted, nil
}

// CompileIR register-allocates and schedules an IR program (as produced
// by the workload generator or the asm builder with virtual registers;
// hand-written programs with architectural registers should use
// ScheduleOnly).
func CompileIR(p *ir.Program) (*Compiled, error) {
	alloc, err := regalloc.Allocate(p)
	if err != nil {
		return nil, err
	}
	sp, err := sched.Schedule(p)
	if err != nil {
		return nil, err
	}
	return newCompiled(NewDriver(0), p, sp, alloc), nil
}

// ScheduleOnly schedules an already register-allocated (e.g. hand-written)
// program without running the allocator.
func ScheduleOnly(p *ir.Program) (*Compiled, error) {
	sp, err := sched.Schedule(p)
	if err != nil {
		return nil, err
	}
	return newCompiled(NewDriver(0), p, sp, regalloc.Result{}), nil
}

func newCompiled(d *Driver, p *ir.Program, sp *sched.Program, alloc regalloc.Result) *Compiled {
	return &Compiled{
		Name:  p.Name,
		IR:    p,
		Prog:  sp,
		Alloc: alloc,
		drv:   d,
	}
}

// buildEncoder constructs the encoder for a registered scheme name from
// scratch.
func buildEncoder(p *sched.Program, name string) (compress.Encoder, error) {
	sc, ok := scheme.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown scheme %q", name)
	}
	e, err := sc.Build(p)
	if err != nil {
		return nil, fmt.Errorf("core: scheme %s: %w", name, err)
	}
	return e, nil
}

// Encoder builds (and caches) the encoder for a scheme name. Safe for
// concurrent use; the build is content-cached and timed under the
// "encode.<scheme>" stage.
func (c *Compiled) Encoder(name string) (compress.Encoder, error) {
	return memoAs(c.drv, c.encoderKey(name), func() (compress.Encoder, error) {
		return timed(c.drv, "encode."+name, func() (compress.Encoder, error) {
			return buildEncoder(c.Prog, name)
		})
	})
}

// buildImage lays out the program under a prebuilt encoder, attaching
// the ATT when withATT is set.
func buildImage(p *sched.Program, enc compress.Encoder, withATT bool) (*image.Image, error) {
	im, err := image.Build(p, enc)
	if err != nil || !withATT {
		return im, err
	}
	im.ATT, err = image.BuildATT(p, im)
	return im, err
}

// Image builds (and caches) the program image under a scheme, with its
// ATT attached for every non-self-indexed scheme. Safe for concurrent
// use; the build is content-cached, timed under the "image.<scheme>"
// stage, and accounted in the bytes.base/bytes.encoded throughput
// counters. The encoder is requested only when the image itself builds,
// and it is the only artifact the build requests.
func (c *Compiled) Image(name string) (*image.Image, error) {
	im, err := memoAs(c.drv, c.imageKey(name), func() (*image.Image, error) {
		sc, ok := scheme.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("core: unknown scheme %q", name)
		}
		enc, err := c.Encoder(name)
		if err != nil {
			return nil, err
		}
		im, err := timed(c.drv, "image."+name, func() (*image.Image, error) {
			return buildImage(c.Prog, enc, !sc.SelfIndexed)
		})
		if err == nil {
			c.drv.obs.Counter("bytes.base").Add(int64(c.Prog.TotalOps() * isa.OpBits / 8))
			c.drv.obs.Counter("bytes.encoded").Add(int64(im.CodeBytes))
		}
		return im, err
	})
	if err != nil {
		return nil, err
	}
	c.built.LoadOrStore(name, true)
	return im, nil
}

// Dictionary builds the beyond-Huffman dictionary scheme (§7 future work)
// at the given index width, along with its program image and ATT.
func (c *Compiled) Dictionary(indexBits int) (*compress.Dictionary, *image.Image, error) {
	d, err := compress.NewDictionary(c.Prog, indexBits)
	if err != nil {
		return nil, nil, err
	}
	im, err := image.Build(c.Prog, d)
	if err != nil {
		return nil, nil, err
	}
	if im.ATT, err = image.BuildATT(c.Prog, im); err != nil {
		return nil, nil, err
	}
	return d, im, nil
}

// Tailored returns the tailored-ISA generator (for Verilog emission and
// field reports).
func (c *Compiled) Tailored() (*tailor.Tailored, error) {
	e, err := c.Encoder("tailored")
	if err != nil {
		return nil, err
	}
	return e.(*tailor.Tailored), nil
}

// Trace materializes the benchmark's dynamic trace: the profile-driven
// stochastic walk with the profile's seed and phase count, the same walk
// StreamTrace delivers chunk by chunk. maxBlocks <= 0 selects the
// profile's default length. Every call walks afresh and nothing is
// cached: replays stream instead (StreamTrace into cache.RunStream), and
// a whole trace is for consumers that need every event at once, such as
// the simulation oracle (CheckSim) or a profile-driven layout.
func (c *Compiled) Trace(maxBlocks int) (*trace.Trace, error) {
	if c.Profile == nil {
		return nil, fmt.Errorf("core: %s has no profile; use emu.Machine to run it", c.Name)
	}
	if maxBlocks <= 0 {
		maxBlocks = c.Profile.DynBlocks
	}
	return emu.StochasticTrace(c.Prog, c.Profile.Seed, maxBlocks, c.Profile.Phases)
}

// StreamTrace produces the benchmark's dynamic trace as a chunk stream
// whose Next runs the walk for one chunk on the consumer's goroutine —
// the same seeded walk as Trace, but never materialized, so the horizon
// is limited only by the consumer's patience. One-shot and uncached (a
// stream is consumed, not an artifact); maxBlocks <= 0 selects the
// profile's default length, chunkEvents <= 0 the stream default.
func (c *Compiled) StreamTrace(maxBlocks, chunkEvents int) (trace.Stream, error) {
	if c.Profile == nil {
		return nil, fmt.Errorf("core: %s has no profile; use emu.Machine to run it", c.Name)
	}
	if maxBlocks <= 0 {
		maxBlocks = c.Profile.DynBlocks
	}
	return emu.StochasticStream(c.Prog, c.Profile.Seed, maxBlocks, c.Profile.Phases, chunkEvents)
}

// StreamTraceOps is StreamTrace bounded by dynamic operation count —
// the long-horizon generator ("stream 100M ops"), where the block
// count is not known up front.
func (c *Compiled) StreamTraceOps(maxOps int64, chunkEvents int) (trace.Stream, error) {
	if c.Profile == nil {
		return nil, fmt.Errorf("core: %s has no profile; use emu.Machine to run it", c.Name)
	}
	return emu.StochasticStreamOps(c.Prog, c.Profile.Seed, maxOps, c.Profile.Phases, chunkEvents)
}

// Verify round-trips every block of every image requested so far,
// proving the encodings are executable. Each image and its encoder come
// back through the store, so an evicted artifact rebuilds first.
func (c *Compiled) Verify() error {
	var schemes []string
	c.built.Range(func(k, _ any) bool {
		schemes = append(schemes, k.(string))
		return true
	})
	sort.Strings(schemes)
	for _, scheme := range schemes {
		im, err := c.Image(scheme)
		if err != nil {
			return err
		}
		enc, err := c.Encoder(scheme)
		if err != nil {
			return err
		}
		if err := image.VerifyRoundTrip(im, c.Prog, enc); err != nil {
			return fmt.Errorf("core: scheme %s: %w", scheme, err)
		}
	}
	return nil
}
