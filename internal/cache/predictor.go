package cache

import (
	"fmt"
	"slices"

	"repro/internal/atb"
)

// PredictorKind names a built-in branch-direction predictor. The zero
// value selects the paper's default (bimodal). Config.Predictor carries
// one of these; NewSim validates it at construction time.
type PredictorKind string

// The built-in predictors: the paper's per-block 2-bit counters and the
// two-level predictors it names as future work (§7).
const (
	// PredictorDefault is the zero value, an alias for PredictorBimodal.
	PredictorDefault PredictorKind = ""
	// PredictorBimodal is the paper's per-block 2-bit saturating counter.
	PredictorBimodal PredictorKind = "bimodal"
	// PredictorGShare is McFarling's global-history predictor.
	PredictorGShare PredictorKind = "gshare"
	// PredictorPAs is the Yeh/Patt two-level per-address predictor.
	PredictorPAs PredictorKind = "pas"
)

// PredictorKinds returns every built-in kind, sorted.
func PredictorKinds() []PredictorKind {
	return []PredictorKind{PredictorBimodal, PredictorGShare, PredictorPAs}
}

// ParsePredictor validates a predictor name (e.g. a CLI flag value); the
// empty string selects the default.
func ParsePredictor(name string) (PredictorKind, error) {
	kind := PredictorKind(name)
	if kind != PredictorDefault && !slices.Contains(PredictorKinds(), kind) {
		return PredictorDefault, fmt.Errorf("%w: unknown predictor %q (have %v)",
			ErrBadConfig, name, PredictorKinds())
	}
	return kind, nil
}

// newPredictor constructs the direction predictor for a kind; blocks is
// the program's basic-block count.
func newPredictor(kind PredictorKind, blocks int) (atb.DirectionPredictor, error) {
	switch kind {
	case PredictorDefault, PredictorBimodal:
		return atb.NewBimodal(blocks), nil
	case PredictorGShare:
		return atb.NewGShare(14)
	case PredictorPAs:
		return atb.NewPAs(blocks, 10)
	}
	return nil, fmt.Errorf("%w: unknown predictor %q", ErrBadConfig, kind)
}
