package atb

import "fmt"

// DirectionPredictor predicts the taken/not-taken outcome of a block's
// terminating branch. The paper uses a per-block 2-bit saturating counter
// (Smith's bimodal predictor) and names gshare and the Yeh/Patt PAs
// two-level predictor as the "more complex branch predictors [that] could
// be used" — its future work. All three are implemented here and can be
// plugged into the ATB.
type DirectionPredictor interface {
	// Predict returns the predicted outcome for a block's terminator.
	Predict(block int) bool
	// Update trains the predictor with the actual outcome.
	Update(block int, taken bool)
	// Name identifies the predictor in reports.
	Name() string
}

// counterPredict is the shared 2-bit saturating counter update rule.
func counterUpdate(c *uint8, taken bool) {
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// Bimodal is the paper's baseline: one 2-bit saturating counter per block
// entry, coupled with the ATB.
type Bimodal struct {
	counters []uint8
}

// NewBimodal builds the per-block counter table, initialized weakly
// not-taken so fall-through blocks predict correctly from the start.
func NewBimodal(blocks int) *Bimodal {
	b := &Bimodal{counters: make([]uint8, blocks)}
	for i := range b.counters {
		b.counters[i] = 1
	}
	return b
}

// Name implements DirectionPredictor.
func (*Bimodal) Name() string { return "bimodal" }

// Predict implements DirectionPredictor.
func (b *Bimodal) Predict(block int) bool { return b.counters[block] >= 2 }

// Update implements DirectionPredictor.
func (b *Bimodal) Update(block int, taken bool) {
	counterUpdate(&b.counters[block], taken)
}

// GShare is McFarling's global-history predictor: the global branch
// history register XORed with the block address indexes one shared table
// of 2-bit counters.
type GShare struct {
	histBits int
	history  uint32
	table    []uint8
}

// NewGShare builds a gshare predictor with 2^histBits counters.
func NewGShare(histBits int) (*GShare, error) {
	if histBits < 1 || histBits > 24 {
		return nil, fmt.Errorf("atb: gshare history bits %d outside [1,24]", histBits)
	}
	g := &GShare{histBits: histBits, table: make([]uint8, 1<<uint(histBits))}
	for i := range g.table {
		g.table[i] = 1
	}
	return g, nil
}

// Name implements DirectionPredictor.
func (g *GShare) Name() string { return "gshare" }

func (g *GShare) index(block int) uint32 {
	mask := uint32(1)<<uint(g.histBits) - 1
	return (uint32(block) ^ g.history) & mask
}

// Predict implements DirectionPredictor.
func (g *GShare) Predict(block int) bool { return g.table[g.index(block)] >= 2 }

// Update implements DirectionPredictor.
func (g *GShare) Update(block int, taken bool) {
	counterUpdate(&g.table[g.index(block)], taken)
	g.history <<= 1
	if taken {
		g.history |= 1
	}
}

// PAs is the Yeh/Patt two-level per-address predictor: each block keeps a
// local history register that indexes a shared pattern table of 2-bit
// counters.
type PAs struct {
	histBits  int
	histories []uint16
	pattern   []uint8
}

// NewPAs builds a PAs predictor with per-block histories of histBits bits.
func NewPAs(blocks, histBits int) (*PAs, error) {
	if histBits < 1 || histBits > 16 {
		return nil, fmt.Errorf("atb: PAs history bits %d outside [1,16]", histBits)
	}
	p := &PAs{
		histBits:  histBits,
		histories: make([]uint16, blocks),
		pattern:   make([]uint8, 1<<uint(histBits)),
	}
	for i := range p.pattern {
		p.pattern[i] = 1
	}
	return p, nil
}

// Name implements DirectionPredictor.
func (*PAs) Name() string { return "PAs" }

func (p *PAs) index(block int) uint16 {
	mask := uint16(1)<<uint(p.histBits) - 1
	return p.histories[block] & mask
}

// Predict implements DirectionPredictor.
func (p *PAs) Predict(block int) bool { return p.pattern[p.index(block)] >= 2 }

// Update implements DirectionPredictor.
func (p *PAs) Update(block int, taken bool) {
	counterUpdate(&p.pattern[p.index(block)], taken)
	p.histories[block] <<= 1
	if taken {
		p.histories[block] |= 1
	}
}
