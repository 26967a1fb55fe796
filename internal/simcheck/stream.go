package simcheck

import (
	"errors"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/verify"
)

// This file is the streaming differential harness: the proof obligation
// that sequential Sim.Run over the slice and incremental Sim.RunStream
// over chunks are one simulator, wherever the chunk seams fall. Every
// counter must agree exactly, including BitFlips and ATBHitRate (which
// the analytical oracle does not model but the replays must still
// reproduce bit-identically), and the oracle's own streaming face must
// agree with its slice face. Findings report under CheckSimStream.

// streamChunks are the deliberately awkward chunk sizes of the
// equivalence replays: primes, so seams never align with loop
// structure, one of them small enough that the pipeline's warm state
// crosses a seam every few dozen events.
var streamChunks = [2]int{997, 61}

// diffFull compares two results across every counter — the eleven the
// oracle models plus BitFlips and ATBHitRate — returning one Mismatch
// per disagreement (ATBHitRate is folded through its bit pattern; exact
// equality is the contract).
func diffFull(got, want cache.Result) []Mismatch {
	out := Diff(got, want)
	if got.BitFlips != want.BitFlips {
		out = append(out, Mismatch{Field: "BitFlips", Got: got.BitFlips, Want: want.BitFlips})
	}
	if got.ATBHitRate != want.ATBHitRate {
		out = append(out, Mismatch{Field: "ATBHitRate",
			Got: int64(got.ATBHitRate * 1e9), Want: int64(want.ATBHitRate * 1e9)})
	}
	return out
}

// StreamEquivalence replays the input through Sim.RunStream at each of
// streamChunks and diffs every replay against the sequential run, then
// shadows the last one with the oracle's streaming recomputation. An
// error means a replay could not run at all; divergences land in the
// report under CheckSimStream.
func StreamEquivalence(in Input) (*verify.Report, error) {
	rep := &verify.Report{}
	stage := in.stage()

	want, err := in.run(in.Cfg, in.Tr)
	if err != nil {
		return nil, err
	}

	var streamed cache.Result
	for _, cs := range streamChunks {
		sim, err := cache.NewOrgSim(in.Org, in.Cfg, in.Im, in.ROM, in.Prog)
		if err != nil {
			return nil, err
		}
		if streamed, err = sim.RunStream(trace.NewSliceStream(in.Tr, cs)); err != nil {
			return nil, err
		}
		for _, m := range diffFull(streamed, want) {
			rep.Errorf(stage, verify.CheckSimStream, verify.NoPos,
				"RunStream chunk %d %s: %d, sequential %d", cs, m.Field, m.Got, m.Want)
		}
	}

	oracle, err := ExpectedStream(in.Org, in.Cfg, in.Im, in.ROM, in.Prog,
		trace.NewSliceStream(in.Tr, streamChunks[0]))
	switch {
	case errors.Is(err, ErrUnsupported):
		// Outside the analytical model; the replay equivalences above
		// still hold the line.
	case err != nil:
		return nil, err
	default:
		for _, m := range Diff(streamed, oracle) {
			rep.Errorf(stage, verify.CheckSimStream, verify.NoPos,
				"RunStream chunk %d %s: %d, streaming oracle chunk %d %d",
				streamChunks[1], m.Field, m.Got, streamChunks[0], m.Want)
		}
	}
	return rep, nil
}
