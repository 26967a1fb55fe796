// Package superblock explores the paper's final future-work item: "usage
// of complex blocks as fetch units" (§7; §3.1 sketches the requirements —
// blocks with side exits are fine as long as the exits are rarely taken,
// side entrances are not allowed, and an invalidation mechanism covers
// partial execution).
//
// Build forms superblock-style fetch units by chaining a basic block to
// its fall-through successor when that successor has no other entrances
// and the chaining branch rarely leaves the chain. Evaluate then replays
// a dynamic trace to quantify what the larger fetch unit would buy: fewer
// fetch initiations (each one is a prediction + ATB access + potential
// startup penalty) and fewer ATT entries (one per fetch unit instead of
// one per basic block), against the dynamic rate of side exits (which a
// real implementation must handle with invalidation).
package superblock

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Unit is one fetch unit: a chain of basic blocks entered only at the
// head, left normally at the tail, and possibly early through rare side
// exits.
type Unit struct {
	ID     int
	Blocks []int // member block IDs, chain order
	Ops    int
	MOPs   int
}

// Plan is a superblock formation over one program.
type Plan struct {
	Units  []Unit
	unitOf []int // block ID -> unit ID
	posOf  []int // block ID -> position within its unit
}

// UnitOf returns the fetch unit containing a block.
func (p *Plan) UnitOf(block int) int { return p.unitOf[block] }

// DefaultMinFallProb is the chaining threshold: a side exit may be taken
// at most 30% of the time, mirroring profile-guided superblock formation.
const DefaultMinFallProb = 0.7

// Build forms fetch units. minFallProb is the minimum fall-through
// probability required to chain across a conditional branch; <= 0 selects
// DefaultMinFallProb.
func Build(sp *sched.Program, minFallProb float64) (*Plan, error) {
	if minFallProb <= 0 {
		minFallProb = DefaultMinFallProb
	}
	if minFallProb > 1 {
		return nil, fmt.Errorf("superblock: fall probability threshold %g > 1", minFallProb)
	}
	n := len(sp.Blocks)
	preds := make([]int, n)
	entry := make([]bool, n)
	for _, e := range sp.FuncEntries {
		entry[e] = true
	}
	for _, b := range sp.Blocks {
		if b.FallTarget >= 0 {
			preds[b.FallTarget]++
		}
		if b.TakenTarget >= 0 {
			preds[b.TakenTarget]++
		}
	}

	// canChain reports whether block b extends its unit into b.FallTarget.
	canChain := func(b *sched.Block) bool {
		ft := b.FallTarget
		if ft < 0 || entry[ft] || preds[ft] != 1 || sp.Blocks[ft].Fn != b.Fn {
			return false
		}
		if len(b.Ops) > 0 && b.Ops[len(b.Ops)-1].Type == isa.TypeBranch {
			switch b.Ops[len(b.Ops)-1].Code {
			case isa.OpBR, isa.OpBRLC, isa.OpRET, isa.OpCALL:
				return false // control never falls through
			}
		}
		if b.HasCondBranch() && 1-b.TakenProb < minFallProb {
			return false // side exit too likely
		}
		return true
	}

	p := &Plan{
		unitOf: make([]int, n),
		posOf:  make([]int, n),
	}
	for i := range p.unitOf {
		p.unitOf[i] = -1
	}
	for start := 0; start < n; start++ {
		if p.unitOf[start] != -1 {
			continue
		}
		// Only start a unit at a block that is not someone's unique
		// fall-through continuation (those get absorbed by their
		// predecessor's chain) — unless the predecessor is already placed.
		u := Unit{ID: len(p.Units)}
		cur := start
		for {
			p.unitOf[cur] = u.ID
			p.posOf[cur] = len(u.Blocks)
			b := sp.Blocks[cur]
			u.Blocks = append(u.Blocks, cur)
			u.Ops += b.NumOps()
			u.MOPs += b.NumMOPs()
			if !canChain(b) {
				break
			}
			next := b.FallTarget
			if p.unitOf[next] != -1 {
				break
			}
			cur = next
		}
		p.Units = append(p.Units, u)
	}
	return p, nil
}

// Stats quantifies a formation statically and against one trace.
type Stats struct {
	Blocks      int
	Units       int
	AvgUnitOps  float64
	AvgBlockOps float64

	// ATT entries: one per block before, one per unit after.
	ATTBefore int
	ATTAfter  int

	// Dynamic, from the trace.
	FetchStartsBB int64 // fetch initiations at basic-block granularity
	FetchStartsSB int64 // fetch initiations at superblock granularity
	SideExits     int64 // dynamic early exits out of a unit
}

// FetchReduction is the fraction of fetch initiations the larger units
// remove.
func (s Stats) FetchReduction() float64 {
	if s.FetchStartsBB == 0 {
		return 0
	}
	return 1 - float64(s.FetchStartsSB)/float64(s.FetchStartsBB)
}

// SideExitRate is the fraction of unit executions that leave early.
func (s Stats) SideExitRate() float64 {
	if s.FetchStartsSB == 0 {
		return 0
	}
	return float64(s.SideExits) / float64(s.FetchStartsSB)
}

// Evaluate replays a trace over the formation.
func (p *Plan) Evaluate(sp *sched.Program, tr *trace.Trace) Stats {
	s := Stats{
		Blocks:    len(sp.Blocks),
		Units:     len(p.Units),
		ATTBefore: len(sp.Blocks),
		ATTAfter:  len(p.Units),
	}
	totalOps := 0
	for _, u := range p.Units {
		totalOps += u.Ops
	}
	if s.Units > 0 {
		s.AvgUnitOps = float64(totalOps) / float64(s.Units)
	}
	if s.Blocks > 0 {
		s.AvgBlockOps = float64(totalOps) / float64(s.Blocks)
	}

	prevBlock := -1
	for _, ev := range tr.Events {
		b := ev.Block()
		s.FetchStartsBB++
		continues := false
		if prevBlock >= 0 &&
			p.unitOf[prevBlock] == p.unitOf[b] &&
			p.posOf[b] == p.posOf[prevBlock]+1 &&
			sp.Blocks[prevBlock].FallTarget == b {
			continues = true
		}
		if !continues {
			s.FetchStartsSB++
			// Did the previous unit end early? Early = the previous block
			// was not the tail of its unit.
			if prevBlock >= 0 {
				u := p.Units[p.unitOf[prevBlock]]
				if p.posOf[prevBlock] != len(u.Blocks)-1 {
					s.SideExits++
				}
			}
		}
		prevBlock = b
	}
	return s
}
