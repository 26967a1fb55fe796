// Package simcheck is the simulation oracle: a correctness-tooling layer
// over the trace-driven IFetch simulator (internal/cache) that earns
// trust in the paper's headline numbers the way the static verifier
// (internal/verify) earns trust in the artifacts feeding them.
//
// Four independent instruments, each reporting through the verifier's
// stable-CheckID diagnostics:
//
//   - Oracle (oracle.go) recomputes Cycles, BusBeats, BytesFetched and
//     LinesFetched from first principles — an analytical model driven
//     only by the trace, the organization's registered OrgSpec and the
//     per-block line geometry, sharing no code with Sim.Run — and diffs
//     every counter against the simulator (CheckSimOracle).
//   - Metamorphic (meta.go) perturbs the configuration and asserts
//     relations that must hold whatever the absolute numbers are:
//     perfect prediction never increases cycles, a strictly larger LRU
//     cache never misses more, a self-concatenated trace doubles the
//     operation counts, and the L0 filter conserves block fetches
//     (CheckSimMeta*, CheckSimIdentity).
//   - StreamEquivalence (stream.go) replays the point incrementally
//     (Sim.RunStream) at two chunk sizes and demands bit-identity with
//     the sequential run in every counter, shadowed by the oracle's
//     streaming face (CheckSimStream).
//   - FaultMatrix (fault.go) feeds the pipeline corrupted images,
//     malformed traces and degenerate geometries, asserting each is
//     rejected with the documented typed error rather than accepted or
//     crashed on (CheckSimFault).
//
// Check runs all three for one (organization, config, images, trace)
// point; core.Compiled.CheckSim / SimLint wire it over every registered
// pairing, cmd/tepicsim -check and cmd/tepicbench -check expose it on
// the command line, and cmd/tepiclint -sim folds it into the verifier
// report.
package simcheck

import (
	"errors"

	"repro/internal/cache"
	"repro/internal/image"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/verify"
)

// ErrUnsupported marks a configuration outside the oracle's analytical
// model (currently: any direction predictor other than the paper's
// bimodal baseline). The metamorphic and fault checks still run for
// such configurations; only the oracle diff is skipped.
var ErrUnsupported = errors.New("simcheck: configuration outside the oracle's model")

// Input is one simulation point to check: the same arguments
// cache.NewOrgSim takes, plus the trace to replay and an optional
// diagnostic stage label.
type Input struct {
	Org  cache.Org
	Cfg  cache.Config
	Im   *image.Image // the image the cache indexes
	ROM  *image.Image // NeedsROM organizations only
	Prog *sched.Program
	Tr   *trace.Trace
	// Stage labels diagnostics ("sim:Compressed"); empty derives
	// "sim:" + the organization name.
	Stage string
}

func (in Input) stage() string {
	if in.Stage != "" {
		return in.Stage
	}
	return "sim:" + in.Org.String()
}

// run builds a fresh simulator (Sim.Run does not reset state between
// replays) under a possibly perturbed configuration and replays tr.
func (in Input) run(cfg cache.Config, tr *trace.Trace) (cache.Result, error) {
	sim, err := cache.NewOrgSim(in.Org, cfg, in.Im, in.ROM, in.Prog)
	if err != nil {
		return cache.Result{}, err
	}
	return sim.Run(tr)
}

// Check runs the full checking layer for one simulation point — the
// oracle diff, the accounting identities, the metamorphic invariants
// and the fault matrix — merging every diagnostic into one sorted
// report. An error means a check could not run at all (the base
// simulation itself failed); findings land in the report.
func Check(in Input) (*verify.Report, error) {
	rep := &verify.Report{}

	oracleRep, err := Oracle(in)
	switch {
	case errors.Is(err, ErrUnsupported):
		// Outside the analytical model: the remaining instruments
		// still apply.
	case err != nil:
		return nil, err
	default:
		rep.Merge(oracleRep)
	}

	metaRep, err := Metamorphic(in)
	if err != nil {
		return nil, err
	}
	rep.Merge(metaRep)

	streamRep, err := StreamEquivalence(in)
	if err != nil {
		return nil, err
	}
	rep.Merge(streamRep)

	rep.Merge(FaultMatrix(in))
	rep.Sort()
	return rep, nil
}
