// Package cache implements the paper's instruction-fetch simulators: the
// baseline Banked Cache (§3.4) for uncompressed code, the compressed-code
// ICache with hit-path decompressor and L0 buffer (§4, Figure 11), and
// the tailored-ISA ICache with miss-path extraction (§5, Figure 12). All
// three are trace-driven at basic-block granularity with the cycle-count
// assumptions of Table 1, and report the paper's metrics: operations
// delivered per cycle (Figure 13) and memory-bus bit flips (Figure 14).
//
// The simulator is a composable stage pipeline: Sim.Run drives the
// ATBStage, L0Store, CacheArray, Decompressor and BusModel interfaces
// (stages.go), and each organization — including the related-work
// CodePack model (§6) — is a declarative OrgSpec in a registry (org.go)
// naming its stage composition and Table 1 timing.
package cache

import (
	"fmt"

	"repro/internal/atb"
	"repro/internal/image"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Config is the cache geometry and associated structures.
type Config struct {
	Sets       int
	Assoc      int
	LineBytes  int
	L0Ops      int // L0 buffer capacity in ops (organizations with HasL0)
	ATBEntries int
	BusBytes   int
	// PerfectPrediction disables the next-block predictor and treats
	// every prediction as correct — the ablation isolating how much of
	// each scheme's behaviour is misprediction penalty (the paper's
	// central explanation for Tailored beating Compressed).
	PerfectPrediction bool
	// Predictor selects the direction predictor: PredictorDefault (or
	// PredictorBimodal) for the paper's per-block 2-bit counters,
	// PredictorGShare or PredictorPAs for the future-work two-level
	// predictors (§7). Validated at NewSim time.
	Predictor PredictorKind
}

// DefaultConfig returns the paper's experimental configuration: 16 KB
// 2-way set associative (256 sets x 32 B lines) for the compressed and
// tailored caches; organizations holding uncompressed ops need a line
// size that is a multiple of the 40-bit op, making theirs effectively
// 20 KB (256 sets x 40 B lines). The line size comes from the
// organization's registered spec.
func DefaultConfig(org Org) Config {
	cfg := Config{
		Sets: 256, Assoc: 2, LineBytes: 32,
		L0Ops:      32,
		ATBEntries: atb.DefaultEntries,
		BusBytes:   power.DefaultBusBytes,
	}
	if spec, ok := org.Spec(); ok && spec.LineBytes > 0 {
		cfg.LineBytes = spec.LineBytes
	}
	return cfg
}

// Result carries one simulation's metrics.
type Result struct {
	Benchmark string
	Scheme    string // encoding scheme name
	Org       string // organization label

	Cycles int64
	Ops    int64
	MOPs   int64

	BlockFetches int64
	CacheLookups int64 // block-granular cache accesses (after L0 filter)
	CacheMisses  int64 // block fetches with at least one missing line
	LinesFetched int64
	BufferHits   int64
	Mispredicts  int64

	BusBeats     int64
	BitFlips     int64
	BytesFetched int64

	ATBHitRate float64
}

// IPC returns operations delivered per cycle — the paper's Figure 13
// metric.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Ops) / float64(r.Cycles)
}

// Merge accumulates another result's counters into r — how RunStream
// folds each chunk's counters into the run total. Every int64 counter
// is summed; the identifying labels and the derived ATBHitRate are left
// for the caller, which knows the whole run.
func (r *Result) Merge(o Result) {
	r.Cycles += o.Cycles
	r.Ops += o.Ops
	r.MOPs += o.MOPs
	r.BlockFetches += o.BlockFetches
	r.CacheLookups += o.CacheLookups
	r.CacheMisses += o.CacheMisses
	r.LinesFetched += o.LinesFetched
	r.BufferHits += o.BufferHits
	r.Mispredicts += o.Mispredicts
	r.BusBeats += o.BusBeats
	r.BitFlips += o.BitFlips
	r.BytesFetched += o.BytesFetched
}

// MissRate returns block-granular cache miss rate.
func (r Result) MissRate() float64 {
	if r.CacheLookups == 0 {
		return 0
	}
	return float64(r.CacheMisses) / float64(r.CacheLookups)
}

// MispredictRate returns next-block mispredictions per block fetch.
func (r Result) MispredictRate() float64 {
	if r.BlockFetches == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.BlockFetches)
}

// Sim is one IFetch simulation instance: the fixed stage-pipeline driver
// configured by an organization's OrgSpec.
type Sim struct {
	org  Org
	spec OrgSpec
	cfg  Config
	im   *image.Image // the image the cache indexes
	rom  *image.Image // NeedsROM organizations: the encoded ROM behind the bus
	sp   *sched.Program

	cache CacheArray
	buf   L0Store // nil unless the spec has an L0 buffer
	atb   ATBStage
	bus   BusModel

	fetch []fetchEntry // per block: everything step needs from the images
	pad   []byte       // reused payload for a line past the image data
}

// fetchEntry is one block's row of the per-block fetch table: the
// geometry- and image-derived quantities step would otherwise recompute
// (with several divisions and two Decompressor calls) on every event.
// They depend only on the block, the images and the fixed line size, so
// NewOrgSim evaluates them once.
type fetchEntry struct {
	firstLine int64 // first cache line of the block's placement
	lines     int   // cache lines the placement touches
	hitN      int   // Decompressor volume n on a cache (or L0) hit
	missN     int   // Decompressor volume n on a miss
	romFirst  int64 // first ROM line (NeedsROM organizations)
	romLines  int   // ROM lines the block's footprint spans
	ops       int   // ops the L0 buffer captures
	mops      int   // scheduled MOPs streamed after the startup
}

// NewSim builds a simulator for a program image under one organization.
// The image must be encoded with the scheme matching the organization
// (base for OrgBase, a Huffman scheme for OrgCompressed, the tailored
// encoding for OrgTailored); the simulator is agnostic beyond block
// addresses and sizes. Organizations that fetch from a separate ROM
// image need NewOrgSim (or NewCodePackSim).
func NewSim(org Org, cfg Config, im *image.Image, sp *sched.Program) (*Sim, error) {
	if spec, ok := org.Spec(); ok && spec.NeedsROM {
		return nil, fmt.Errorf("%w: Org%s needs two images; use NewCodePackSim", ErrBadConfig, spec.Name)
	}
	return NewOrgSim(org, cfg, im, nil, sp)
}

// NewOrgSim builds a simulator for any registered organization. rom is
// the separately encoded ROM image behind the bus and must be non-nil
// exactly when the organization's spec sets NeedsROM.
func NewOrgSim(org Org, cfg Config, im, rom *image.Image, sp *sched.Program) (*Sim, error) {
	spec, ok := org.Spec()
	if !ok {
		return nil, fmt.Errorf("%w: unknown organization %d", ErrBadConfig, int(org))
	}
	if err := validateImage(im, "cache", sp); err != nil {
		return nil, err
	}
	if spec.NeedsROM {
		if rom == nil {
			return nil, fmt.Errorf("%w: organization %s needs a ROM image", ErrBadConfig, spec.Name)
		}
		if err := validateImage(rom, "ROM", sp); err != nil {
			return nil, err
		}
	} else if rom != nil {
		return nil, fmt.Errorf("%w: organization %s takes no ROM image", ErrBadConfig, spec.Name)
	}
	lc, err := NewLineCache(cfg.Sets, cfg.Assoc, cfg.LineBytes)
	if err != nil {
		return nil, err
	}
	falls := make([]int, len(sp.Blocks))
	for i, b := range sp.Blocks {
		falls[i] = b.FallTarget
	}
	infos := atb.InfosFromFalls(falls)
	if err := atb.ValidateInfos(infos); err != nil {
		return nil, err
	}
	dir, err := newPredictor(cfg.Predictor, len(sp.Blocks))
	if err != nil {
		return nil, err
	}
	s := &Sim{
		org:   org,
		spec:  spec,
		cfg:   cfg,
		im:    im,
		rom:   rom,
		sp:    sp,
		cache: lc,
		atb:   atb.NewWithPredictor(infos, cfg.ATBEntries, dir),
		bus:   power.NewBus(cfg.BusBytes),
		pad:   make([]byte, cfg.LineBytes),
	}
	if spec.HasL0 {
		if cfg.L0Ops < 0 {
			return nil, fmt.Errorf("%w: L0 buffer capacity %d ops", ErrBadGeometry, cfg.L0Ops)
		}
		s.buf = NewL0Buffer(cfg.L0Ops, len(sp.Blocks))
	}
	s.fetch = make([]fetchEntry, len(im.Blocks))
	for i, blk := range im.Blocks {
		var romBlk image.Block
		if rom != nil {
			romBlk = rom.Blocks[i]
		}
		s.fetch[i] = fetchEntry{
			firstLine: lc.LineOf(blk.Addr),
			lines:     blk.Lines(cfg.LineBytes),
			hitN:      spec.Decode.HitLines(blk, cfg.LineBytes),
			missN:     spec.Decode.MissLines(blk, romBlk, cfg.LineBytes),
			romFirst:  int64(romBlk.Addr / cfg.LineBytes),
			romLines:  romBlk.Lines(cfg.LineBytes),
			ops:       blk.Ops,
			mops:      sp.Blocks[i].NumMOPs(),
		}
	}
	return s, nil
}

// validateImage rejects images whose block table and data disagree
// before they can drive the fetch pipeline out of bounds: a block count
// differing from the scheduled program, negative placements, or extents
// past the end of the image data. All rejections wrap ErrCorruptImage.
func validateImage(im *image.Image, role string, sp *sched.Program) error {
	if len(im.Blocks) != len(sp.Blocks) {
		return fmt.Errorf("%w: %s image has %d blocks, program %d",
			ErrCorruptImage, role, len(im.Blocks), len(sp.Blocks))
	}
	for i, b := range im.Blocks {
		if b.Addr < 0 || b.Bytes < 0 {
			return fmt.Errorf("%w: %s image block %d has negative placement (addr %d, %d bytes)",
				ErrCorruptImage, role, i, b.Addr, b.Bytes)
		}
		if b.Addr+b.Bytes > len(im.Data) {
			return fmt.Errorf("%w: %s image block %d extends to %d but data holds %d bytes",
				ErrCorruptImage, role, i, b.Addr+b.Bytes, len(im.Data))
		}
	}
	return nil
}

// NewCodePackSim builds the related-work miss-path-decompression
// organization (§6): the cache indexes the *uncompressed* image (cacheIm,
// the base encoding) while the bus fetches from the *compressed* ROM
// (romIm — typically the byte scheme, as in IBM CodePack). Miss repair
// fetches the block's compressed lines and decompresses at miss time.
func NewCodePackSim(cfg Config, cacheIm, romIm *image.Image, sp *sched.Program) (*Sim, error) {
	return NewOrgSim(OrgCodePack, cfg, cacheIm, romIm, sp)
}

// Run replays a trace through the IFetch stage pipeline: predictor and
// ATB, the optional L0 buffer, the cache array with bus-backed miss
// repair, and the organization's Decompressor and StartupTable. The
// trace is validated up front — an event referencing a block outside the
// simulated program returns an error wrapping ErrMalformedTrace instead
// of driving the pipeline out of bounds.
func (s *Sim) Run(tr *trace.Trace) (Result, error) {
	if err := tr.ValidateRefs(len(s.im.Blocks)); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrMalformedTrace, err)
	}
	return s.RunStream(trace.NewSliceStream(tr, 0))
}

// RunStream replays a chunked trace stream through the stage pipeline
// incrementally: each chunk is validated (wrapping ErrMalformedTrace on
// a bad reference, with the absolute event offset), replayed, and
// recycled before the next is taken, so peak memory is the stream's
// chunk working set regardless of trace length. Operation totals
// accumulate from the chunks' Ops/MOPs attribution. The result is
// bit-identical to Run over the materialized trace.
//
// On an error the returned Result carries exactly what was replayed:
// the merged counters (including bus traffic) of every chunk before the
// failing one, plus — for a mid-chunk step failure — the failing
// chunk's per-event counters and schedule-attributed Ops/MOPs up to and
// including the failing event (see replayWindow). ATBHitRate is only
// derived on success. A producer's terminal error is returned as is,
// with the counters of every chunk delivered before it.
//
// Trace production overlaps the replay whenever the stream has its own
// producer goroutine (trace.ChanStream, and the emulator's walkers built
// on it); RunStream itself is the simulator's one replay path.
func (s *Sim) RunStream(st trace.Stream) (Result, error) {
	res := Result{
		Benchmark: st.Name(),
		Scheme:    s.im.Scheme,
		Org:       s.org.String(),
	}
	// The prediction for the very first block is a free cold start.
	predicted := -2
	for {
		c, err := st.Next()
		if err != nil {
			return res, err
		}
		if c == nil {
			break
		}
		if verr := trace.ValidateChunk(c, len(s.im.Blocks)); verr != nil {
			st.Recycle(c)
			st.Close()
			return res, fmt.Errorf("%w: %v", ErrMalformedTrace, verr)
		}
		wres, pred, serr := s.replayWindow(c, predicted)
		res.Merge(wres)
		predicted = pred
		st.Recycle(c)
		if serr != nil {
			st.Close()
			return res, serr
		}
	}
	res.ATBHitRate = s.atb.HitRate()
	return res, nil
}

// replayWindow replays one validated chunk's events from the seam
// prediction pred and returns the chunk's counter deltas: bus traffic is
// measured as the before/after difference of the cumulative bus model.
// On success the chunk's producer-attributed Ops/MOPs are credited; on a
// step failure only the schedule-attributed ops of the events actually
// replayed are — including the failing event, whose fetch was fully
// accounted before its ATB training errored. endPred carries the
// next-block prediction across the trailing seam.
func (s *Sim) replayWindow(c *trace.Chunk, pred int) (res Result, endPred int, err error) {
	beats0, flips0, bytes0 := s.bus.Counts()
	endPred = pred
	failed := -1
	for i, ev := range c.Events {
		if endPred, err = s.step(ev, endPred, &res); err != nil {
			failed = i
			break
		}
	}
	if failed < 0 {
		res.Ops, res.MOPs = c.Ops, c.MOPs
	} else {
		// Partial attribution: the producer's per-chunk Ops/MOPs never
		// commit for a failed chunk; the replayed prefix is credited from
		// the schedule instead, exactly like the dynamic counts the
		// producers attribute per event.
		for _, ev := range c.Events[:failed+1] {
			b := s.sp.Blocks[ev.Block]
			res.Ops += int64(b.NumOps())
			res.MOPs += int64(b.NumMOPs())
		}
	}
	beats1, flips1, bytes1 := s.bus.Counts()
	res.BusBeats = beats1 - beats0
	res.BitFlips = flips1 - flips0
	res.BytesFetched = bytes1 - bytes0
	return res, endPred, err
}

// badUpdate wraps an ATB training failure; kept out of step so the
// annotated hot path stays free of fmt.
func badUpdate(err error) error {
	return fmt.Errorf("%w: %v", ErrMalformedTrace, err)
}

// step replays one trace event through the stage pipeline — the
// simulator's per-event hot loop, run once per fetched block for every
// (benchmark, pairing, geometry) point of a sweep. It accumulates into
// res and returns the next-block prediction for the following event.
// Everything it needs from the images comes from the per-block fetch
// table, so no line span or volume is recomputed per event, and a step
// allocates nothing (TestStepZeroAlloc).
//
//tepic:hotpath
func (s *Sim) step(ev trace.Event, predicted int, res *Result) (int, error) {
	f := &s.fetch[ev.Block]

	predCorrect := predicted == ev.Block || predicted == -2 ||
		s.cfg.PerfectPrediction
	if !predCorrect {
		res.Mispredicts++
	}
	res.BlockFetches++
	s.atb.Touch(ev.Block)

	// L0 buffer: consulted first, filters main-cache accesses.
	bufHit := false
	if s.buf != nil {
		bufHit = s.buf.Lookup(ev.Block)
		if bufHit {
			res.BufferHits++
		}
	}

	cacheHit := true
	if !bufHit {
		res.CacheLookups++
		// Restricted placement: the block is the unit of residency. The
		// lines its placement touches are what is probed, repaired and
		// (for in-cache images) carried over the bus.
		nFetch := int64(f.lines)
		missing := 0
		for l := int64(0); l < nFetch; l++ {
			if !s.cache.Probe(f.firstLine + l) {
				missing++
			}
		}
		if missing > 0 {
			cacheHit = false
			res.CacheMisses++
			if s.rom != nil {
				// The bus carries the ROM's encoded lines. Like the
				// in-cache path below, repair is line-granular: whole
				// memory lines spanning the block's ROM footprint, so
				// BusBeats/BytesFetched agree with LinesFetched.
				romLines := int64(f.romLines)
				res.LinesFetched += romLines
				for l := int64(0); l < romLines; l++ {
					s.bus.Transfer(s.lineData(s.rom, f.romFirst+l))
				}
			} else {
				res.LinesFetched += nFetch
				// Miss repair fetches the whole block over the bus
				// and validates all its lines (atomic fetch unit).
				for l := int64(0); l < nFetch; l++ {
					s.bus.Transfer(s.lineData(s.im, f.firstLine+l))
				}
			}
			for l := int64(0); l < nFetch; l++ {
				s.cache.Fill(f.firstLine + l)
			}
		}
		if s.buf != nil {
			// The decompressor's output is captured by the buffer.
			s.buf.Insert(ev.Block, f.ops)
		}
	}

	// The decompressor/extractor stage sets n, the line volume the
	// startup path streams through for this fetch.
	n := f.hitN
	if !cacheHit {
		n = f.missN
	}
	res.Cycles += int64(s.spec.Timing.Cycles(predCorrect, cacheHit, bufHit, n))
	if f.mops > 1 {
		res.Cycles += int64(f.mops - 1) // stream remaining MOPs, 1 per cycle
	}

	// Train the predictor and remember the next-block prediction.
	predicted, _ = s.atb.Predict(ev.Block)
	if err := s.atb.Update(ev.Block, ev.Taken, ev.Next); err != nil {
		return predicted, badUpdate(err)
	}
	return predicted, nil
}

// lineData returns the bytes of one memory line of an image's encoded
// data (zero-padded past the end of the image) — the payload a
// line-granular miss repair puts on the bus, whether the line lives in
// the cache's own image or a behind-the-bus ROM image. A padded line is
// built in the Sim's one reused line buffer, valid until the next call;
// the bus copies what it keeps.
func (s *Sim) lineData(im *image.Image, line int64) []byte {
	lineBytes := len(s.pad)
	start := int(line) * lineBytes
	end := start + lineBytes
	if end <= len(im.Data) {
		return im.Data[start:end]
	}
	n := 0
	if start < len(im.Data) {
		n = copy(s.pad, im.Data[start:])
	}
	clear(s.pad[n:])
	return s.pad
}

// RunIdeal returns the perfect-cache, perfect-predictor result: one cycle
// per MOP (the paper's "Ideal" bar, limited only by schedule density).
func RunIdeal(tr *trace.Trace) Result {
	return Result{
		Benchmark: tr.Name,
		Scheme:    "ideal",
		Org:       "Ideal",
		Cycles:    tr.MOPs,
		Ops:       tr.Ops,
		MOPs:      tr.MOPs,
	}
}
