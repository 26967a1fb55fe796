package simcheck

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/image"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/verify"
)

// This file is the analytical oracle: an independent model of the IFetch
// pipeline that recomputes a simulation's counters from first principles
// — the trace, the organization's registered OrgSpec (Table 1 startup
// matrix, decompressor volume rule, stage composition flags) and the
// per-block line geometry. It deliberately shares no state machinery
// with internal/cache: residency is timestamp-map LRU rather than the
// simulator's move-to-front arrays, the bimodal predictor and L0 buffer
// are re-derived from their documented semantics, and bus volume is
// closed-form (every miss repair moves whole lines, so bytes and beats
// follow from the fetched line count alone). Any divergence between the
// two implementations is a bug in one of them.

// Expected recomputes the result Sim.Run must produce for one
// simulation point. BitFlips and ATBHitRate are not modeled (the oracle
// has no data path or ATB capacity model); Diff skips them.
// Configurations using a direction predictor other than the paper's
// bimodal baseline return ErrUnsupported.
func Expected(org cache.Org, cfg cache.Config, im, rom *image.Image, sp *sched.Program, tr *trace.Trace) (cache.Result, error) {
	if err := tr.ValidateRefs(len(im.Blocks)); err != nil {
		return cache.Result{}, err
	}
	return ExpectedStream(org, cfg, im, rom, sp, trace.NewSliceStream(tr, 0))
}

// ExpectedStream is the oracle's streaming face: the same analytical
// recomputation as Expected, consuming a chunked trace stream
// incrementally (each chunk is reference-validated, replayed through
// the model, and recycled), so the oracle can shadow the simulator over
// long-horizon streams without materializing them.
func ExpectedStream(org cache.Org, cfg cache.Config, im, rom *image.Image, sp *sched.Program, st trace.Stream) (cache.Result, error) {
	o, err := newOracleState(org, cfg, im, rom, sp)
	if err != nil {
		return cache.Result{}, err
	}
	res := cache.Result{
		Benchmark: st.Name(),
		Scheme:    im.Scheme,
		Org:       org.String(),
	}
	for {
		c, err := st.Next()
		if err != nil {
			return res, err
		}
		if c == nil {
			return res, nil
		}
		if verr := trace.ValidateChunk(c, len(im.Blocks)); verr != nil {
			st.Recycle(c)
			st.Close()
			return res, verr
		}
		res.Ops += c.Ops
		res.MOPs += c.MOPs
		for _, ev := range c.Events {
			o.step(ev, &res)
		}
		st.Recycle(c)
	}
}

// oracleState is the analytical model's mutable state between events:
// the timestamp-map LRU, the L0 model, the predictor model and the
// carried next-block prediction. One instance replays one trace,
// whether delivered as a slice or a chunk stream.
type oracleState struct {
	spec         cache.OrgSpec
	cfg          cache.Config
	im, rom      *image.Image
	sp           *sched.Program
	beatsPerLine int64
	lru          *lruModel
	l0           *l0Model
	pred         *predModel
	predicted    int
}

// newOracleState validates the configuration (everything Expected
// historically rejected except the trace itself) and builds the model.
func newOracleState(org cache.Org, cfg cache.Config, im, rom *image.Image, sp *sched.Program) (*oracleState, error) {
	spec, ok := org.Spec()
	if !ok {
		return nil, fmt.Errorf("simcheck: unknown organization %d", int(org))
	}
	if cfg.Predictor != cache.PredictorDefault && cfg.Predictor != cache.PredictorBimodal {
		return nil, fmt.Errorf("%w: %s predictor", ErrUnsupported, cfg.Predictor)
	}
	if cfg.Sets < 1 || cfg.Assoc < 1 || cfg.LineBytes < 1 {
		return nil, fmt.Errorf("simcheck: degenerate geometry %d sets x %d ways x %dB",
			cfg.Sets, cfg.Assoc, cfg.LineBytes)
	}
	if len(im.Blocks) != len(sp.Blocks) {
		return nil, fmt.Errorf("simcheck: image has %d blocks, program %d",
			len(im.Blocks), len(sp.Blocks))
	}
	if spec.NeedsROM && (rom == nil || len(rom.Blocks) != len(im.Blocks)) {
		return nil, fmt.Errorf("simcheck: organization %s needs a matching ROM image", spec.Name)
	}
	busBytes := cfg.BusBytes
	if busBytes <= 0 {
		busBytes = power.DefaultBusBytes
	}
	return &oracleState{
		spec: spec,
		cfg:  cfg,
		im:   im,
		rom:  rom,
		sp:   sp,
		// Every repair transfer is one whole line, so the bus arithmetic
		// is closed-form per fetched line.
		beatsPerLine: int64((cfg.LineBytes + busBytes - 1) / busBytes),
		lru:          newLRUModel(cfg.Sets, cfg.Assoc),
		l0:           newL0Model(cfg.L0Ops),
		pred:         newPredModel(sp),
		predicted:    -2, // the first fetch's prediction is a free cold start
	}, nil
}

// step replays one event through the analytical model, accumulating
// into res.
func (o *oracleState) step(ev trace.Event, res *cache.Result) {
	lineBytes := o.cfg.LineBytes
	id := ev.Block()
	blk := o.im.Blocks[id]
	predOK := o.predicted == id || o.predicted == -2 || o.cfg.PerfectPrediction
	if !predOK {
		res.Mispredicts++
	}
	res.BlockFetches++

	bufHit := false
	if o.spec.HasL0 {
		bufHit = o.l0.lookup(id)
		if bufHit {
			res.BufferHits++
		}
	}

	cacheHit := true
	first, span := blockSpan(blk, lineBytes)
	var romBlk image.Block
	if o.spec.NeedsROM {
		romBlk = o.rom.Blocks[id]
	}
	if !bufHit {
		res.CacheLookups++
		missing := 0
		for l := 0; l < span; l++ {
			if !o.lru.probe(first + int64(l)) {
				missing++
			}
		}
		if missing > 0 {
			cacheHit = false
			res.CacheMisses++
			fetched := int64(span)
			if o.spec.NeedsROM {
				_, romSpan := blockSpan(romBlk, lineBytes)
				fetched = int64(romSpan)
			}
			res.LinesFetched += fetched
			res.BytesFetched += fetched * int64(lineBytes)
			res.BusBeats += fetched * o.beatsPerLine
			for l := 0; l < span; l++ {
				o.lru.fill(first + int64(l))
			}
		}
		if o.spec.HasL0 {
			o.l0.insert(id, blk.Ops)
		}
	}

	n := o.spec.Decode.HitLines(blk, lineBytes)
	if !cacheHit {
		n = o.spec.Decode.MissLines(blk, romBlk, lineBytes)
	}
	res.Cycles += startupCycles(o.spec.Timing, predOK, cacheHit, bufHit, n)
	if mops := o.sp.Blocks[id].NumMOPs(); mops > 1 {
		res.Cycles += int64(mops - 1) // stream remaining MOPs, 1/cycle
	}

	o.predicted = o.pred.predict(id)
	o.pred.train(id, ev.Taken(), ev.Next())
}

// blockSpan returns the first memory line a block's placement touches
// and how many lines it spans (zero for empty blocks).
func blockSpan(b image.Block, lineBytes int) (first int64, span int) {
	if b.Bytes == 0 {
		return int64(b.Addr / lineBytes), 0
	}
	firstLine := b.Addr / lineBytes
	lastLine := (b.Addr + b.Bytes - 1) / lineBytes
	return int64(firstLine), lastLine - firstLine + 1
}

// startupCycles evaluates a Table 1 startup matrix: miss cells always
// stream n lines at one per cycle (n-1 extra); hit cells do so only
// when the organization's hit path runs through a decompressor; the L0
// cells preempt everything. n clamps to 1.
func startupCycles(t cache.StartupTable, predOK, cacheHit, bufHit bool, n int) int64 {
	if n < 1 {
		n = 1
	}
	extra := n - 1
	switch {
	case bufHit && predOK:
		return int64(t.BufPredHit)
	case bufHit:
		return int64(t.BufMispred)
	case predOK && cacheHit:
		if t.HitScalesN {
			return int64(t.PredHit + extra)
		}
		return int64(t.PredHit)
	case predOK:
		return int64(t.PredMiss + extra)
	case cacheHit:
		if t.HitScalesN {
			return int64(t.MispredHit + extra)
		}
		return int64(t.MispredHit)
	default:
		return int64(t.MispredMiss + extra)
	}
}

// lruModel is set-associative true-LRU residency, modeled as per-set
// timestamp maps: the resident line with the smallest stamp is the LRU
// victim. Equivalent to (and structurally unlike) the simulator's
// move-to-front way arrays.
type lruModel struct {
	sets  int
	assoc int
	clock uint64
	lines []map[int64]uint64 // per set: resident line -> last-use stamp
}

func newLRUModel(sets, assoc int) *lruModel {
	m := &lruModel{sets: sets, assoc: assoc, lines: make([]map[int64]uint64, sets)}
	for i := range m.lines {
		m.lines[i] = map[int64]uint64{}
	}
	return m
}

func (m *lruModel) set(line int64) map[int64]uint64 { return m.lines[int(line)%m.sets] }

// probe reports residency, refreshing recency on hit.
func (m *lruModel) probe(line int64) bool {
	s := m.set(line)
	if _, ok := s[line]; !ok {
		return false
	}
	m.clock++
	s[line] = m.clock
	return true
}

// fill installs a line as most recent, evicting the LRU resident if the
// set is full.
func (m *lruModel) fill(line int64) {
	s := m.set(line)
	m.clock++
	if _, ok := s[line]; ok {
		s[line] = m.clock
		return
	}
	if len(s) >= m.assoc {
		var victim int64
		oldest := ^uint64(0)
		for l, stamp := range s {
			if stamp < oldest {
				oldest, victim = stamp, l
			}
		}
		delete(s, victim)
	}
	s[line] = m.clock
}

// l0Model is the §4 post-decompressor buffer: fully associative over
// blocks, capacity in operations, LRU eviction until an insert fits,
// blocks larger than the whole buffer never cached.
type l0Model struct {
	capOps int
	used   int
	clock  uint64
	stamp  map[int]uint64 // resident block -> last-use stamp
	ops    map[int]int
}

func newL0Model(capOps int) *l0Model {
	return &l0Model{capOps: capOps, stamp: map[int]uint64{}, ops: map[int]int{}}
}

func (m *l0Model) lookup(block int) bool {
	if _, ok := m.stamp[block]; !ok {
		return false
	}
	m.clock++
	m.stamp[block] = m.clock
	return true
}

func (m *l0Model) insert(block, numOps int) {
	if numOps > m.capOps {
		return
	}
	if _, ok := m.stamp[block]; ok {
		m.clock++
		m.stamp[block] = m.clock
		return
	}
	for m.used+numOps > m.capOps && len(m.stamp) > 0 {
		var victim int
		oldest := ^uint64(0)
		for b, stamp := range m.stamp {
			if stamp < oldest {
				oldest, victim = stamp, b
			}
		}
		m.used -= m.ops[victim]
		delete(m.stamp, victim)
		delete(m.ops, victim)
	}
	m.clock++
	m.stamp[block] = m.clock
	m.ops[block] = numOps
	m.used += numOps
}

// predModel is the paper's next-block predictor: a per-block 2-bit
// saturating counter (initialized weakly not-taken) choosing between
// the last recorded taken target (initially unknown, -1) and the
// schedule's fall-through successor.
type predModel struct {
	counters []uint8
	target   []int
	fall     []int
}

func newPredModel(sp *sched.Program) *predModel {
	m := &predModel{
		counters: make([]uint8, len(sp.Blocks)),
		target:   make([]int, len(sp.Blocks)),
		fall:     make([]int, len(sp.Blocks)),
	}
	for i, b := range sp.Blocks {
		m.counters[i] = 1
		m.target[i] = -1
		m.fall[i] = b.FallTarget
	}
	return m
}

func (m *predModel) predict(block int) int {
	if m.counters[block] >= 2 {
		return m.target[block]
	}
	return m.fall[block]
}

func (m *predModel) train(block int, taken bool, next int) {
	if taken {
		if m.counters[block] < 3 {
			m.counters[block]++
		}
		m.target[block] = next
	} else if m.counters[block] > 0 {
		m.counters[block]--
	}
}

// Mismatch is one counter disagreeing between the simulator and the
// oracle.
type Mismatch struct {
	Field     string
	Got, Want int64 // simulator, oracle
}

// Diff compares a simulator result against the oracle's, returning one
// Mismatch per disagreeing counter. BitFlips and ATBHitRate are outside
// the oracle's model and not compared.
func Diff(got, want cache.Result) []Mismatch {
	fields := []struct {
		name string
		g, w int64
	}{
		{"Cycles", got.Cycles, want.Cycles},
		{"Ops", got.Ops, want.Ops},
		{"MOPs", got.MOPs, want.MOPs},
		{"BlockFetches", got.BlockFetches, want.BlockFetches},
		{"CacheLookups", got.CacheLookups, want.CacheLookups},
		{"CacheMisses", got.CacheMisses, want.CacheMisses},
		{"LinesFetched", got.LinesFetched, want.LinesFetched},
		{"BufferHits", got.BufferHits, want.BufferHits},
		{"Mispredicts", got.Mispredicts, want.Mispredicts},
		{"BusBeats", got.BusBeats, want.BusBeats},
		{"BytesFetched", got.BytesFetched, want.BytesFetched},
	}
	var out []Mismatch
	for _, f := range fields {
		if f.g != f.w {
			out = append(out, Mismatch{Field: f.name, Got: f.g, Want: f.w})
		}
	}
	return out
}

// Oracle replays the input through both the simulator and the
// analytical model and reports every disagreeing counter under
// CheckSimOracle. ErrUnsupported propagates for configurations outside
// the oracle's model.
func Oracle(in Input) (*verify.Report, error) {
	want, err := Expected(in.Org, in.Cfg, in.Im, in.ROM, in.Prog, in.Tr)
	if err != nil {
		return nil, err
	}
	got, err := in.run(in.Cfg, in.Tr)
	if err != nil {
		return nil, err
	}
	rep := &verify.Report{}
	for _, m := range Diff(got, want) {
		rep.Errorf(in.stage(), verify.CheckSimOracle, verify.NoPos,
			"%s: simulator %d, oracle %d", m.Field, m.Got, m.Want)
	}
	return rep, nil
}
