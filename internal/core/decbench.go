package core

import (
	"fmt"
	"time"

	"repro/internal/bitio"
	"repro/internal/compress"
	"repro/internal/stats"
)

// DecodeThroughput is one scheme's measured entropy-decode rate over a
// compiled image, at three tiers decoding identical Huffman symbol
// streams (every block of the image, in placement order):
//
//   - Reference: the bit-by-bit canonical decoder — the correctness
//     oracle and the denominator of every speedup.
//   - Fast: the table-driven per-symbol decoder through a Reader — the
//     pre-kernel baseline.
//   - Batch: the served block kernel (huffman.LaneDecoder.Decode, what
//     /v1/decode runs per block) through the prebuilt DecodePlan, one
//     block after another.
//
// Ops counts Huffman symbols — whole operations for the full scheme,
// packed bytes for the byte scheme, one symbol per stream segment per
// op for the stream schemes. Speedup and BatchSpeedup are fast/ref and
// batch/ref by decoded bits per second; LaneGain is batch/fast — the
// served kernel's gain over the per-symbol table-driven decoder. Each
// ratio is the median of the per-round ratios (every round decodes the
// same bits in all three tiers, so a round's ratio is its ratio of pass
// times), and its quartiles over the rounds show the spread: one
// descheduled pass moves one round's ratio, not the reported one.
type DecodeThroughput struct {
	Scheme       string                   `json:"-"`
	Fast         stats.ThroughputSnapshot `json:"fast"`
	Reference    stats.ThroughputSnapshot `json:"reference"`
	Batch        stats.ThroughputSnapshot `json:"batch"`
	Rounds       int                      `json:"rounds"`
	Speedup      float64                  `json:"speedup"`
	BatchSpeedup float64                  `json:"batch_speedup"`
	LaneGain     float64                  `json:"lane_gain"`

	SpeedupQuartiles      [2]float64 `json:"speedup_quartiles"`
	BatchSpeedupQuartiles [2]float64 `json:"batch_speedup_quartiles"`
	LaneGainQuartiles     [2]float64 `json:"lane_gain_quartiles"`

	ratios []roundRatios
}

// roundRatios is one round's fast/ref, batch/ref and batch/fast rate
// ratios.
type roundRatios [3]float64

// PoolRounds sets dt's ratios and quartiles from the rounds of every
// measurement in parts (one per benchmark, say), pooled as one sample.
func (dt *DecodeThroughput) PoolRounds(parts ...*DecodeThroughput) {
	var ratios []roundRatios
	for _, p := range parts {
		ratios = append(ratios, p.ratios...)
	}
	dt.setRatios(ratios)
}

// setRatios keeps ratios as dt's rounds and sets each of the three
// ratios to its median over them, with its quartiles.
func (dt *DecodeThroughput) setRatios(ratios []roundRatios) {
	dt.ratios = ratios
	dt.Rounds = len(ratios)
	col := make([]float64, len(ratios))
	for k, out := range [3]struct {
		median    *float64
		quartiles *[2]float64
	}{
		{&dt.Speedup, &dt.SpeedupQuartiles},
		{&dt.BatchSpeedup, &dt.BatchSpeedupQuartiles},
		{&dt.LaneGain, &dt.LaneGainQuartiles},
	} {
		for i, r := range ratios {
			col[i] = r[k]
		}
		q1, med, q3 := stats.Quartiles(col)
		*out.median, *out.quartiles = med, [2]float64{q1, q3}
	}
}

// MeasureDecodeThroughput times the scheme's Huffman symbol-stream
// decode over the whole image, at least repeats (and at least 15) times
// per decoder, and returns the three rates plus their ratios. Schemes
// without a Huffman symbol stream (base, tailored, dict) return
// (nil, nil): there is no decoder to compare.
//
// Measurement contract: the timed region of every tier charges only
// per-symbol decode work. Decode tables, the lane kernel, and the batch
// plan's flattened block geometry are all built (or fetched from the
// artifact cache) before any timer starts — the code-size cost of the
// tables is charged by the decoder-complexity model, not smuggled into
// the throughput denominator. Every pass re-decodes the same image; the
// per-pass symbol and bit counts of all three tiers are asserted equal,
// so the rates divide work that is provably identical.
//
// The rates are also accumulated in the driver's registry under "decode.fast.<scheme>",
// "decode.reference.<scheme>" and "decode.batch.<scheme>", so the
// benchmark report aggregates across benchmarks.
func (c *Compiled) MeasureDecodeThroughput(scheme string, repeats int) (*DecodeThroughput, error) {
	if repeats < 1 {
		repeats = 1
	}
	enc, err := c.Encoder(scheme)
	if err != nil {
		return nil, err
	}
	sd, ok := enc.(compress.SymbolDecoder)
	if !ok {
		return nil, nil
	}
	im, err := c.Image(scheme)
	if err != nil {
		return nil, err
	}
	// Hoisted out of the timed region: the plan carries the prebuilt
	// lane kernel and the image geometry (see the measurement contract
	// above).
	plan, err := c.DecodePlan(scheme)
	if err != nil {
		return nil, err
	}
	if plan == nil {
		return nil, fmt.Errorf("core: %s exposes a symbol decoder but no batch face", scheme)
	}

	// One pass decodes every block of the image; rounds of passes repeat
	// until the requested count, minRounds and minWindow are all met, so
	// small images still produce stable rates. The three tiers are
	// interleaved within each round (fast, reference, batch) rather than
	// measured in one contiguous window per tier: slow drift in effective
	// machine speed — frequency scaling, a noisy neighbour — then lands
	// evenly on every tier and cancels out of each round's ratios, and
	// the median over rounds drops the rounds a burst of noise hit in
	// one tier only.
	const (
		minRounds = 15                     // samples behind each median ratio
		minWindow = 250 * time.Millisecond // span a noise burst must outlast
	)
	pass := func(decode func(r *bitio.Reader, n int) (int, error)) (syms, bits int64, err error) {
		r := bitio.NewReader(im.Data)
		for i := range im.Blocks {
			if err = r.SeekBit(im.Blocks[i].Addr * 8); err != nil {
				return 0, 0, err
			}
			before := r.Offset()
			nsym, derr := decode(r, im.Blocks[i].Ops)
			if derr != nil {
				return 0, 0, fmt.Errorf("core: %s decode block %d: %w", scheme, i, derr)
			}
			syms += int64(nsym)
			bits += int64(r.Offset() - before)
		}
		return syms, bits, nil
	}
	tiers := [3]struct {
		pass               func() (int64, int64, error)
		passSyms, passBits int64
		elapsed            time.Duration
	}{
		{pass: func() (int64, int64, error) { return pass(sd.DecodeBlockSymbols) }},
		{pass: func() (int64, int64, error) { return pass(sd.ReferenceDecodeBlockSymbols) }},
		{pass: func() (int64, int64, error) {
			syms, bits, err := plan.DecodeSymbols(nil)
			if err != nil {
				return 0, 0, fmt.Errorf("core: %s batch decode: %w", scheme, err)
			}
			return syms, bits, nil
		}},
	}
	rounds := int64(0)
	var ratios []roundRatios
	start := time.Now()
	for rounds < max(int64(repeats), minRounds) || time.Since(start) < minWindow {
		var took [3]time.Duration
		for i := range tiers {
			t0 := time.Now()
			syms, bits, err := tiers[i].pass()
			took[i] = time.Since(t0)
			tiers[i].elapsed += took[i]
			if err != nil {
				return nil, err
			}
			tiers[i].passSyms, tiers[i].passBits = syms, bits
		}
		if tiers[0].passBits > 0 && took[0] > 0 && took[1] > 0 && took[2] > 0 {
			f, r, b := float64(took[0]), float64(took[1]), float64(took[2])
			ratios = append(ratios, roundRatios{r / f, r / b, f / b})
		}
		rounds++
	}
	fps, fpb := tiers[0].passSyms, tiers[0].passBits
	rps, rpb := tiers[1].passSyms, tiers[1].passBits
	bps, bpb := tiers[2].passSyms, tiers[2].passBits
	if fps != rps || fpb != rpb {
		return nil, fmt.Errorf("core: %s decode divergence: fast %d syms / %d bits per pass, reference %d / %d",
			scheme, fps, fpb, rps, rpb)
	}
	if bps != fps || bpb != fpb {
		return nil, fmt.Errorf("core: %s decode divergence: batch %d syms / %d bits per pass, fast %d / %d",
			scheme, bps, bpb, fps, fpb)
	}
	// Per-pass counts are identical across passes; scale to the work
	// actually done in each tier's accumulated window.
	fsyms, fbits, fdur := fps*rounds, fpb*rounds, tiers[0].elapsed
	rsyms, rbits, rdur := rps*rounds, rpb*rounds, tiers[1].elapsed
	bsyms, bbits, bdur := bps*rounds, bpb*rounds, tiers[2].elapsed

	var fast, ref, batch stats.Throughput
	fast.Observe(fsyms, fbits, fdur)
	ref.Observe(rsyms, rbits, rdur)
	batch.Observe(bsyms, bbits, bdur)
	c.drv.obs.Throughput("decode.fast."+scheme).Observe(fsyms, fbits, fdur)
	c.drv.obs.Throughput("decode.reference."+scheme).Observe(rsyms, rbits, rdur)
	c.drv.obs.Throughput("decode.batch."+scheme).Observe(bsyms, bbits, bdur)
	dt := &DecodeThroughput{
		Scheme:    scheme,
		Fast:      fast.Snapshot(),
		Reference: ref.Snapshot(),
		Batch:     batch.Snapshot(),
	}
	dt.setRatios(ratios)
	return dt, nil
}
