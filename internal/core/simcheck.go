package core

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/scheme"
	"repro/internal/simcheck"
	"repro/internal/trace"
	"repro/internal/verify"
)

// CheckSim runs the simulation checking layer (internal/simcheck) for
// one registered pairing over this compilation: the analytical oracle
// diff, the accounting identities, the metamorphic invariants and the
// fault-injection matrix. Image builds share the compilation's artifact
// cache. Findings land in the report; the error covers only failures to
// run the checks at all.
func (c *Compiled) CheckSim(p scheme.Pairing, cfg cache.Config, tr *trace.Trace) (*verify.Report, error) {
	im, rom, err := c.pairingImages(p)
	if err != nil {
		return nil, err
	}
	rep, err := simcheck.Check(simcheck.Input{
		Org: p.Org, Cfg: cfg, Im: im, ROM: rom, Prog: c.Prog, Tr: tr,
		Stage: "sim:" + p.Name,
	})
	if err != nil {
		return nil, fmt.Errorf("core: simcheck pairing %s: %w", p.Name, err)
	}
	return rep, nil
}

// StreamCheckChunk is the chunk size CheckStream replays at: a prime,
// so its seams fall away from the default chunking's.
const StreamCheckChunk = 997

// StreamCheck is CheckStream's verdict on one streamed replay.
type StreamCheck struct {
	// Rechunked is the same trace replayed in StreamCheckChunk-event
	// chunks; Identical reports it equal to the checked result in
	// every counter.
	Rechunked cache.Result
	Identical bool
	// Skipped, when the oracle ran but does not model the pairing,
	// wraps simcheck.ErrUnsupported.
	Skipped error
	// Mismatches lists each counter the streaming oracle computes
	// differently from the checked result.
	Mismatches []simcheck.Mismatch
}

// CheckStream checks got, one streamed replay of pairing p at geometry
// cfg over the trace mkStream yields: it replays the same trace cut
// into StreamCheckChunk-event chunks and, with oracle set, recomputes
// the counters through the analytical oracle's streaming face. Neither
// pass materializes the trace. Disagreements land in the verdict; the
// error covers only failures to run the checks at all.
func (c *Compiled) CheckStream(p scheme.Pairing, cfg cache.Config, got cache.Result,
	mkStream func(chunkEvents int) (trace.Stream, error), oracle bool) (StreamCheck, error) {
	var sc StreamCheck
	sim, err := c.SimFor(p, cfg)
	if err != nil {
		return sc, err
	}
	st, err := mkStream(StreamCheckChunk)
	if err != nil {
		return sc, err
	}
	if sc.Rechunked, err = sim.RunStream(st); err != nil {
		return sc, err
	}
	sc.Identical = sc.Rechunked == got
	if !oracle {
		return sc, nil
	}
	im, rom, err := c.pairingImages(p)
	if err != nil {
		return sc, err
	}
	if st, err = mkStream(0); err != nil {
		return sc, err
	}
	want, err := simcheck.ExpectedStream(p.Org, cfg, im, rom, c.Prog, st)
	switch {
	case errors.Is(err, simcheck.ErrUnsupported):
		sc.Skipped = err
	case err != nil:
		return sc, err
	default:
		sc.Mismatches = simcheck.Diff(got, want)
	}
	return sc, nil
}

// SimLint is the dynamic counterpart of Lint: it replays one trace of
// the given length (0 = profile default) through every registered
// pairing at its default geometry and runs the full checking layer on
// each, merging one sorted report.
func (c *Compiled) SimLint(blocks int) (*verify.Report, error) {
	tr, err := c.Trace(blocks)
	if err != nil {
		return nil, err
	}
	rep := &verify.Report{}
	for _, p := range scheme.Pairings() {
		r, err := c.CheckSim(p, cache.DefaultConfig(p.Org), tr)
		if err != nil {
			return nil, err
		}
		rep.Merge(r)
	}
	rep.Sort()
	return rep, nil
}

// SimCheck runs SimLint for every benchmark of the suite on the
// driver's worker pool — the opt-in post-run check behind tepicbench
// -check — merging one sorted report.
func (s *Suite) SimCheck() (*verify.Report, error) {
	reps, err := forEachBenchmark(s, func(name string) (*verify.Report, error) {
		c, err := s.Compiled(name)
		if err != nil {
			return nil, err
		}
		return c.SimLint(s.opt.TraceBlocks)
	})
	if err != nil {
		return nil, err
	}
	rep := &verify.Report{}
	for _, r := range reps {
		rep.Merge(r)
	}
	rep.Sort()
	return rep, nil
}
