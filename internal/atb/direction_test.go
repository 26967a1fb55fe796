package atb

import (
	"math/rand"
	"testing"
)

func TestBimodalBias(t *testing.T) {
	b := NewBimodal(4)
	if b.Predict(0) {
		t.Error("cold bimodal should predict not-taken")
	}
	b.Update(0, true)
	if !b.Predict(0) {
		t.Error("weakly-not-taken + taken should flip to taken")
	}
	if b.Name() != "bimodal" {
		t.Error("name")
	}
}

func TestGShareValidation(t *testing.T) {
	if _, err := NewGShare(0); err == nil {
		t.Error("accepted 0 history bits")
	}
	if _, err := NewGShare(30); err == nil {
		t.Error("accepted 30 history bits")
	}
}

func TestPAsValidation(t *testing.T) {
	if _, err := NewPAs(4, 0); err == nil {
		t.Error("accepted 0 history bits")
	}
	if _, err := NewPAs(4, 20); err == nil {
		t.Error("accepted 20 history bits")
	}
}

// trainAndScore measures accuracy of a predictor on a synthetic branch
// outcome stream.
func trainAndScore(p DirectionPredictor, outcomes []bool, block int) float64 {
	correct := 0
	for _, o := range outcomes {
		if p.Predict(block) == o {
			correct++
		}
		p.Update(block, o)
	}
	return float64(correct) / float64(len(outcomes))
}

// TestTwoLevelBeatsBimodalOnPatterns: a strictly alternating branch
// defeats a 2-bit counter but is perfectly learnable by local-history
// predictors — the motivation for the paper's future-work predictors.
func TestTwoLevelBeatsBimodalOnPatterns(t *testing.T) {
	outcomes := make([]bool, 4000)
	for i := range outcomes {
		outcomes[i] = i%2 == 0 // T,N,T,N,...
	}
	bi := trainAndScore(NewBimodal(8), outcomes, 3)
	pas, err := NewPAs(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	pa := trainAndScore(pas, outcomes, 3)
	gs, err := NewGShare(14)
	if err != nil {
		t.Fatal(err)
	}
	g := trainAndScore(gs, outcomes, 3)
	if bi > 0.6 {
		t.Errorf("bimodal accuracy %.2f on alternating branch; expected poor", bi)
	}
	if pa < 0.95 {
		t.Errorf("PAs accuracy %.2f on alternating branch; expected near-perfect", pa)
	}
	if g < 0.95 {
		t.Errorf("gshare accuracy %.2f on alternating branch; expected near-perfect", g)
	}
}

// TestAllPredictorsLearnBias: every predictor must track a strongly
// biased branch.
func TestAllPredictorsLearnBias(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	outcomes := make([]bool, 5000)
	for i := range outcomes {
		outcomes[i] = r.Float64() < 0.9
	}
	gs, _ := NewGShare(12)
	pas, _ := NewPAs(8, 8)
	for _, p := range []DirectionPredictor{NewBimodal(8), gs, pas} {
		if acc := trainAndScore(p, outcomes, 2); acc < 0.80 {
			t.Errorf("%s accuracy %.2f on 90%%-biased branch", p.Name(), acc)
		}
	}
}

func TestATBWithGShare(t *testing.T) {
	infos := make([]BlockInfo, 8)
	for i := range infos {
		infos[i] = BlockInfo{FallTarget: i + 1}
	}
	gs, err := NewGShare(10)
	if err != nil {
		t.Fatal(err)
	}
	a := NewWithPredictor(infos, 0, gs)
	if a.PredictorName() != "gshare" {
		t.Errorf("predictor name %q", a.PredictorName())
	}
	// Counter() only applies to bimodal.
	if a.Counter(0) != 0 {
		t.Error("Counter on non-bimodal should be 0")
	}
	// Target tracking still works. Enough updates for the global history
	// to saturate at all-taken so the trained table entry is the one the
	// final prediction indexes.
	for i := 0; i < 20; i++ {
		a.Update(2, true, 7)
	}
	if next, taken := a.Predict(2); !taken || next != 7 {
		t.Errorf("gshare ATB prediction (%d,%v)", next, taken)
	}
}
