// Package emu produces dynamic execution traces from scheduled TEPIC
// programs, standing in for the paper's YULA emulation tool. It offers two
// generators:
//
//   - StochasticTrace walks the control-flow graph using the per-block
//     profile annotations (branch taken probabilities) with a seeded PRNG.
//     It scales to benchmark-sized programs and is what the paper-figure
//     experiments use.
//   - Interpreter executes TEPIC operation semantics (registers, memory,
//     predication) and emits the trace of what actually ran. It validates
//     the ISA end to end and runs the example kernels.
package emu

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/trace"
)

// StochasticTrace walks the program's CFG for maxBlocks block executions,
// sampling conditional-branch outcomes from the profile's taken
// probabilities. Calls push the fall-through block on a return stack;
// returns pop it. When execution falls off the end of the current phase
// function, the walk restarts at the next phase entry — rotating through
// the first `phases` functions, which models a driver loop invoking the
// application's phases in turn (phases < 2 pins the walk to main).
// Deterministic for a given (program, seed, maxBlocks, phases).
func StochasticTrace(sp *sched.Program, seed int64, maxBlocks, phases int) (*trace.Trace, error) {
	w, err := newWalker(sp, seed, phases)
	if err != nil {
		return nil, err
	}
	tr := &trace.Trace{Name: sp.Name}
	tr.Events = make([]trace.Event, 0, maxBlocks)
	for len(tr.Events) < maxBlocks {
		ev, ops, mops := w.step()
		tr.Ops += ops
		tr.MOPs += mops
		tr.Events = append(tr.Events, ev)
	}
	if len(tr.Events) > 0 {
		// The final event has no successor within the trace window.
		tr.Events[len(tr.Events)-1].SetNext(trace.End)
	}
	return tr, nil
}

// walker is the stochastic CFG walk's state machine, shared verbatim by
// the slice generator (StochasticTrace) and the streaming producers
// (StochasticStream, StochasticStreamOps) so both consume the seeded
// PRNG in exactly the same order — the determinism contract is that a
// given (program, seed, phases) yields one event sequence no matter how
// it is materialized.
type walker struct {
	sp         *sched.Program
	r          *rand.Rand
	phases     int
	phaseSlice int
	stack      []int
	inPhase    int
	cur        int
}

// newWalker validates the program, rejecting one too large for packed
// trace events, and clamps phases, mirroring the historical
// StochasticTrace preamble.
func newWalker(sp *sched.Program, seed int64, phases int) (*walker, error) {
	if len(sp.Blocks) == 0 || len(sp.FuncEntries) == 0 {
		return nil, fmt.Errorf("emu: empty program")
	}
	if err := trace.CheckBlocks(len(sp.Blocks)); err != nil {
		return nil, fmt.Errorf("emu: %w", err)
	}
	if phases < 1 {
		phases = 1
	}
	if phases > len(sp.FuncEntries) {
		phases = len(sp.FuncEntries)
	}
	// A phase ends when its entry function returns or when its time slice
	// expires (loop nests can make a single phase outlast the whole
	// window); either way the walk jumps to a randomly chosen phase entry.
	// Frequent, randomly ordered phase interleaving is how the large
	// applications behave (gcc cycles its passes per function compiled;
	// interpreters hop between handler clusters), and it is what gives
	// them instruction working sets that genuinely stress the ICache.
	// Short slices: large applications hop between code regions every
	// hundred-odd blocks (per-function pass cycling in gcc, handler
	// dispatch in the interpreters), which is what keeps their
	// instruction fetch continuously under capacity pressure. The slice
	// is only consulted when phases > 1, so the single-phase walk is
	// unaffected by its value.
	return &walker{
		sp:         sp,
		r:          rand.New(rand.NewSource(seed)),
		phases:     phases,
		phaseSlice: 120,
		cur:        sp.FuncEntries[0],
	}, nil
}

// step executes one basic block: it returns the event (whose Next is
// the genuine successor — callers bound the walk and patch the final
// event's Next to trace.End themselves) plus the block's dynamic
// operation counts.
func (w *walker) step() (trace.Event, int64, int64) {
	b := w.sp.Blocks[w.cur]
	ops, mops := int64(b.NumOps()), int64(b.NumMOPs())

	next, taken := successor(w.sp, b, w.r, &w.stack)
	w.inPhase++
	// Slice expiry never interrupts a call transfer, so "a call is
	// always followed by its callee's entry" holds in every trace.
	if next == trace.End || (w.phases > 1 && w.inPhase >= w.phaseSlice && !b.EndsInCall()) {
		// Phase finished (or its slice expired): jump to a random
		// phase entry.
		w.stack = w.stack[:0]
		next = w.sp.FuncEntries[w.r.Intn(w.phases)]
		w.inPhase = 0
	}
	ev := trace.MakeEvent(w.cur, taken, next)
	w.cur = next
	return ev, ops, mops
}

// successor resolves one dynamic control transfer.
func successor(sp *sched.Program, b *sched.Block, r *rand.Rand, stack *[]int) (int, bool) {
	if len(b.Ops) == 0 {
		return b.FallTarget, false
	}
	last := b.Ops[len(b.Ops)-1]
	if last.Type != isa.TypeBranch {
		return b.FallTarget, false
	}
	switch last.Code {
	case isa.OpBR, isa.OpBRLC:
		return b.TakenTarget, true
	case isa.OpBRCT, isa.OpBRCF:
		if r.Float64() < b.TakenProb {
			return b.TakenTarget, true
		}
		return b.FallTarget, false
	case isa.OpCALL:
		if b.FallTarget != trace.End {
			*stack = append(*stack, b.FallTarget)
		}
		return sp.FuncEntries[b.Callee], true
	case isa.OpRET:
		if len(*stack) == 0 {
			return trace.End, true
		}
		ret := (*stack)[len(*stack)-1]
		*stack = (*stack)[:len(*stack)-1]
		return ret, true
	}
	return b.FallTarget, false
}
