package simcheck

import (
	"repro/internal/cache"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/verify"
)

// This file holds the metamorphic checks: relations between runs under
// perturbed configurations (and the intra-run accounting identities)
// that must hold whatever the absolute counter values are. They need no
// oracle and so apply to every configuration, including predictors the
// analytical model does not cover.

// Identities checks one result's internal conservation laws under
// CheckSimIdentity:
//
//   - every trace event is a block fetch;
//   - with an L0 buffer, BufferHits + CacheLookups == BlockFetches (the
//     buffer filters the cache, nothing is dropped or double-counted);
//     without one, BufferHits == 0 and every fetch looks up the cache;
//   - misses cannot exceed lookups, mispredictions cannot exceed
//     fetches;
//   - miss repair is line-granular, so BytesFetched and BusBeats follow
//     from LinesFetched in closed form.
func Identities(in Input, res cache.Result) *verify.Report {
	rep := &verify.Report{}
	stage := in.stage()
	spec, ok := in.Org.Spec()
	if !ok {
		rep.Errorf(stage, verify.CheckSimIdentity, verify.NoPos,
			"unknown organization %d", int(in.Org))
		return rep
	}
	if res.BlockFetches != int64(in.Tr.Len()) {
		rep.Errorf(stage, verify.CheckSimIdentity, verify.NoPos,
			"BlockFetches %d, trace has %d events", res.BlockFetches, in.Tr.Len())
	}
	if spec.HasL0 {
		if res.BufferHits+res.CacheLookups != res.BlockFetches {
			rep.Errorf(stage, verify.CheckSimIdentity, verify.NoPos,
				"L0 filter leaks: BufferHits %d + CacheLookups %d != BlockFetches %d",
				res.BufferHits, res.CacheLookups, res.BlockFetches)
		}
	} else {
		if res.BufferHits != 0 {
			rep.Errorf(stage, verify.CheckSimIdentity, verify.NoPos,
				"organization without an L0 buffer recorded %d buffer hits", res.BufferHits)
		}
		if res.CacheLookups != res.BlockFetches {
			rep.Errorf(stage, verify.CheckSimIdentity, verify.NoPos,
				"CacheLookups %d != BlockFetches %d without an L0 filter",
				res.CacheLookups, res.BlockFetches)
		}
	}
	if res.CacheMisses > res.CacheLookups {
		rep.Errorf(stage, verify.CheckSimIdentity, verify.NoPos,
			"CacheMisses %d exceed CacheLookups %d", res.CacheMisses, res.CacheLookups)
	}
	if res.Mispredicts > res.BlockFetches {
		rep.Errorf(stage, verify.CheckSimIdentity, verify.NoPos,
			"Mispredicts %d exceed BlockFetches %d", res.Mispredicts, res.BlockFetches)
	}
	lineBytes := int64(in.Cfg.LineBytes)
	busBytes := in.Cfg.BusBytes
	if busBytes <= 0 {
		busBytes = power.DefaultBusBytes
	}
	if res.BytesFetched != res.LinesFetched*lineBytes {
		rep.Errorf(stage, verify.CheckSimIdentity, verify.NoPos,
			"BytesFetched %d != %d lines x %dB (repair must be line-granular)",
			res.BytesFetched, res.LinesFetched, lineBytes)
	}
	beatsPerLine := (lineBytes + int64(busBytes) - 1) / int64(busBytes)
	if res.BusBeats != res.LinesFetched*beatsPerLine {
		rep.Errorf(stage, verify.CheckSimIdentity, verify.NoPos,
			"BusBeats %d != %d lines x %d beats/line", res.BusBeats, res.LinesFetched, beatsPerLine)
	}
	return rep
}

// Metamorphic replays the input under perturbed configurations and
// checks the cross-run invariants:
//
//   - CheckSimMetaPerfect: forcing every next-block prediction correct
//     can only remove misprediction penalties, so cycles must not grow
//     and mispredictions must vanish. (Assumes the organization's
//     Table 1 never prices a misprediction below a correct prediction —
//     true of any sane startup matrix.)
//   - CheckSimMetaLRU: doubling associativity at fixed sets keeps every
//     set's reference string identical, so by the LRU stack-inclusion
//     property misses — and with them fetched lines — must not grow.
//   - CheckSimMetaAdditive: replaying the trace concatenated with
//     itself (seam successor patched) performs exactly twice the work
//     in every operation counter.
//
// The base run's accounting identities are checked along the way.
func Metamorphic(in Input) (*verify.Report, error) {
	rep := &verify.Report{}
	stage := in.stage()

	base, err := in.run(in.Cfg, in.Tr)
	if err != nil {
		return nil, err
	}
	rep.Merge(Identities(in, base))

	pcfg := in.Cfg
	pcfg.PerfectPrediction = true
	perfect, err := in.run(pcfg, in.Tr)
	if err != nil {
		return nil, err
	}
	if perfect.Cycles > base.Cycles {
		rep.Errorf(stage, verify.CheckSimMetaPerfect, verify.NoPos,
			"perfect prediction costs %d cycles, real predictor %d", perfect.Cycles, base.Cycles)
	}
	if perfect.Mispredicts != 0 {
		rep.Errorf(stage, verify.CheckSimMetaPerfect, verify.NoPos,
			"perfect prediction recorded %d mispredictions", perfect.Mispredicts)
	}

	bcfg := in.Cfg
	bcfg.Assoc *= 2
	bigger, err := in.run(bcfg, in.Tr)
	if err != nil {
		return nil, err
	}
	if bigger.CacheMisses > base.CacheMisses {
		rep.Errorf(stage, verify.CheckSimMetaLRU, verify.NoPos,
			"%d-way cache misses %d times, %d-way only %d (LRU stack property)",
			bcfg.Assoc, bigger.CacheMisses, in.Cfg.Assoc, base.CacheMisses)
	}
	if bigger.LinesFetched > base.LinesFetched {
		rep.Errorf(stage, verify.CheckSimMetaLRU, verify.NoPos,
			"%d-way cache fetches %d lines, %d-way only %d",
			bcfg.Assoc, bigger.LinesFetched, in.Cfg.Assoc, base.LinesFetched)
	}

	doubled := Concat(in.Tr, in.Tr)
	twice, err := in.run(in.Cfg, doubled)
	if err != nil {
		return nil, err
	}
	for _, c := range []struct {
		name      string
		got, once int64
	}{
		{"BlockFetches", twice.BlockFetches, base.BlockFetches},
		{"Ops", twice.Ops, base.Ops},
		{"MOPs", twice.MOPs, base.MOPs},
	} {
		if c.got != 2*c.once {
			rep.Errorf(stage, verify.CheckSimMetaAdditive, verify.NoPos,
				"concatenated trace: %s %d, want exactly 2 x %d", c.name, c.got, c.once)
		}
	}

	// Chunked additivity at the seam: stream the concatenated trace with
	// a chunk boundary landing exactly on the concatenation point, so
	// the entire LRU/L0/predictor warm state crosses the seam between
	// chunks. The merged counters must equal the sequential replay of
	// the same doubled trace in every field.
	if n := in.Tr.Len(); n > 0 {
		sim, err := cache.NewOrgSim(in.Org, in.Cfg, in.Im, in.ROM, in.Prog)
		if err != nil {
			return nil, err
		}
		chunked, err := sim.RunStream(trace.NewSliceStream(doubled, n))
		if err != nil {
			return nil, err
		}
		for _, m := range diffFull(chunked, twice) {
			rep.Errorf(stage, verify.CheckSimMetaAdditive, verify.NoPos,
				"seam-chunked concat: %s %d, sequential %d", m.Field, m.Got, m.Want)
		}
	}
	return rep, nil
}

// Concat splices two traces end to end, patching the seam event's
// successor so the result passes reference validation (the chain is
// deliberately inconsistent at the seam, which ValidateRefs allows).
func Concat(a, b *trace.Trace) *trace.Trace {
	events := make([]trace.Event, 0, len(a.Events)+len(b.Events))
	events = append(events, a.Events...)
	events = append(events, b.Events...)
	if len(a.Events) > 0 && len(b.Events) > 0 {
		events[len(a.Events)-1].Next = b.Events[0].Block
	}
	return &trace.Trace{
		Name:   a.Name + "+" + b.Name,
		Events: events,
		Ops:    a.Ops + b.Ops,
		MOPs:   a.MOPs + b.MOPs,
	}
}
