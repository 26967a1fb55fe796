package emu

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/trace"
)

// BlockProfile is one block's measured dynamic behaviour.
type BlockProfile struct {
	Exec  int64 // executions observed
	Taken int64 // times the terminator left the fall-through path
}

// TakenProb returns the measured taken probability (0 for cold blocks).
func (p BlockProfile) TakenProb() float64 {
	if p.Exec == 0 {
		return 0
	}
	return float64(p.Taken) / float64(p.Exec)
}

// MeasureProfile derives per-block execution counts and branch outcome
// statistics from a trace — the profile-feedback step of the paper's flow
// (the compiler "annotates [code] to emit an instruction address trace",
// and profile information drives treegion formation and block layout).
func MeasureProfile(sp *sched.Program, tr *trace.Trace) ([]BlockProfile, error) {
	profiles := make([]BlockProfile, len(sp.Blocks))
	for _, ev := range tr.Events {
		b := ev.Block()
		if b < 0 || b >= len(profiles) {
			return nil, fmt.Errorf("emu: trace references block %d of %d",
				b, len(profiles))
		}
		profiles[b].Exec++
		if ev.Taken() {
			profiles[b].Taken++
		}
	}
	return profiles, nil
}

// ApplyProfile overwrites the program's annotated taken probabilities
// with measured ones (blocks never executed keep their static annotation)
// so downstream consumers — the superblock former, the reports — work
// from observed behaviour. Returns how many blocks were re-annotated.
func ApplyProfile(sp *sched.Program, profiles []BlockProfile) (int, error) {
	if len(profiles) != len(sp.Blocks) {
		return 0, fmt.Errorf("emu: %d profiles for %d blocks", len(profiles), len(sp.Blocks))
	}
	updated := 0
	for i, b := range sp.Blocks {
		if profiles[i].Exec == 0 {
			continue
		}
		b.TakenProb = profiles[i].TakenProb()
		updated++
	}
	return updated, nil
}
