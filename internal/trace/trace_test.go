package trace

import (
	"errors"
	"testing"
	"unsafe"
)

func sample() *Trace {
	return &Trace{
		Name: "t",
		Events: []Event{
			MakeEvent(0, false, 1),
			MakeEvent(1, true, 0),
			MakeEvent(0, false, 2),
			MakeEvent(2, true, End),
		},
		Ops: 40, MOPs: 16,
	}
}

func TestValidateOK(t *testing.T) {
	tr := sample()
	if err := tr.Validate(3); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 4 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestValidateBadBlock(t *testing.T) {
	tr := sample()
	tr.Events[1] = withBlock(tr.Events[1], 9)
	if err := tr.Validate(3); err == nil {
		t.Error("accepted out-of-range block")
	}
}

func TestValidateBrokenChain(t *testing.T) {
	tr := sample()
	tr.Events[0].SetNext(2) // but event 1 executes block 1
	if err := tr.Validate(3); err == nil {
		t.Error("accepted inconsistent successor chain")
	}
}

func TestValidateBadSuccessor(t *testing.T) {
	tr := sample()
	tr.Events[3].SetNext(77)
	if err := tr.Validate(3); err == nil {
		t.Error("accepted out-of-range successor")
	}
}

func TestBlockCounts(t *testing.T) {
	tr := sample()
	counts := tr.BlockCounts(3)
	if counts[0] != 2 || counts[1] != 1 || counts[2] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestFootprint(t *testing.T) {
	tr := sample()
	if fp := tr.Footprint(3); fp != 3 {
		t.Errorf("footprint = %d, want 3", fp)
	}
}

// TestEventSize pins the packed layout: a materialized trace costs
// 8 bytes per event.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 8", got)
	}
}

// TestTooManyBlocks checks that the validators accept a program of
// exactly MaxBlocks blocks and reject one block more with
// ErrTooManyBlocks, which also matches ErrMalformedTrace.
func TestTooManyBlocks(t *testing.T) {
	tr := sample()
	for _, tc := range []struct {
		numBlocks int
		want      error
	}{
		{MaxBlocks, nil},
		{MaxBlocks + 1, ErrTooManyBlocks},
	} {
		for name, err := range map[string]error{
			"CheckBlocks":   CheckBlocks(tc.numBlocks),
			"ValidateChunk": ValidateChunk(&Chunk{Events: tr.Events}, tc.numBlocks),
			"ValidateRefs":  tr.ValidateRefs(tc.numBlocks),
			"Validate":      tr.Validate(tc.numBlocks),
		} {
			if tc.want == nil && err != nil {
				t.Errorf("%s(%d) = %v, want nil", name, tc.numBlocks, err)
			}
			if tc.want != nil && (!errors.Is(err, tc.want) || !errors.Is(err, ErrMalformedTrace)) {
				t.Errorf("%s(%d) = %v, want an error wrapping %v and %v",
					name, tc.numBlocks, err, tc.want, ErrMalformedTrace)
			}
		}
	}
}
