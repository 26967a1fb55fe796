// Package sched implements VLIW instruction scheduling for the TEPIC
// backend: it packs a register-allocated IR program's RISC-like operations
// into MultiOps (MOPs) under the modeled core's resource constraints
// (6-issue, at most 2 memory operations per MOP) and emits tail bits for
// the zero-NOP encoding.
//
// The paper schedules with treegions (trees of basic blocks) and then
// decomposes to basic blocks; the IFetch study itself operates purely on
// basic blocks. This package performs dependence-driven list scheduling
// within each basic block — the part of the flow the experiments consume —
// and preserves the block-level control structure and profile annotations
// needed by the trace generator and the ATT builder.
package sched

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/ir"
	"repro/internal/isa"
)

// Block is one scheduled basic block: its MOPs, the flattened operation
// sequence with tail bits, and the control-flow metadata carried over from
// the IR.
type Block struct {
	ID   int
	Fn   int
	MOPs []isa.MOP
	Ops  []isa.Op // MOPs flattened; Ops[i].Tail delimits MOP boundaries

	TakenTarget int // global block ID of the taken edge (ir.NoTarget if none)
	FallTarget  int
	Callee      int // callee function index for call terminators
	TakenProb   float64
}

// NumOps returns the operation count of the block.
func (b *Block) NumOps() int { return len(b.Ops) }

// NumMOPs returns the MOP (fetch-cycle) count of the block.
func (b *Block) NumMOPs() int { return len(b.MOPs) }

// EndsInCall reports whether the block's terminator is a subroutine call.
func (b *Block) EndsInCall() bool {
	return len(b.Ops) > 0 && b.Ops[len(b.Ops)-1].Type == isa.TypeBranch &&
		b.Ops[len(b.Ops)-1].Code == isa.OpCALL
}

// EndsInReturn reports whether the block's terminator is a return.
func (b *Block) EndsInReturn() bool {
	return len(b.Ops) > 0 && b.Ops[len(b.Ops)-1].Type == isa.TypeBranch &&
		b.Ops[len(b.Ops)-1].Code == isa.OpRET
}

// HasCondBranch reports whether the block ends in a conditional branch.
func (b *Block) HasCondBranch() bool {
	if len(b.Ops) == 0 {
		return false
	}
	last := b.Ops[len(b.Ops)-1]
	return last.Type == isa.TypeBranch &&
		(last.Code == isa.OpBRCT || last.Code == isa.OpBRCF)
}

// Program is a scheduled program: blocks in ROM layout order plus the
// entry block of every function (for call-edge resolution).
type Program struct {
	Name        string
	Blocks      []*Block
	FuncEntries []int // FuncEntries[f] = global block ID of function f's entry
}

// TotalOps returns the static operation count.
func (p *Program) TotalOps() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Ops)
	}
	return n
}

// TotalMOPs returns the static MOP count.
func (p *Program) TotalMOPs() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.MOPs)
	}
	return n
}

// Density returns the average ops per MOP — the ceiling on delivered IPC.
func (p *Program) Density() float64 {
	if p.TotalMOPs() == 0 {
		return 0
	}
	return float64(p.TotalOps()) / float64(p.TotalMOPs())
}

// Schedule packs a register-allocated program into MOPs. The input must
// already be register-allocated: any register number outside the
// architectural files is rejected.
func Schedule(p *ir.Program) (*Program, error) {
	sp := &Program{
		Name:        p.Name,
		Blocks:      make([]*Block, p.NumBlocks()),
		FuncEntries: make([]int, len(p.Funcs)),
	}
	for i, f := range p.Funcs {
		sp.FuncEntries[i] = f.Entry().ID
	}
	// Every block and every op of the program live in one array each;
	// a block's Ops is a capped window of the op array.
	blocks := make([]Block, p.NumBlocks())
	ops := make([]isa.Op, p.NumOps())
	var s scheduler
	for i, b := range p.Blocks() {
		n := len(b.Instrs)
		if err := s.scheduleBlock(&blocks[i], b, ops[:n:n]); err != nil {
			return nil, fmt.Errorf("sched: block %d: %w", b.ID, err)
		}
		sp.Blocks[i] = &blocks[i]
		ops = ops[n:]
	}
	return sp, nil
}

// regSlots sizes the dependence builder's per-register tables: one slot
// per architectural register of every class, at regSlot(r).
const regSlots = (int(ir.ClassPred) + 1) * 32

// regSlot is r's index into the per-register tables. lower has checked
// that r is architectural, so the index is in range.
func regSlot(r ir.Reg) int { return int(r.Class)*32 + r.N }

// depNode is the dependence graph node for one instruction; a block's
// nodes are indexed by instruction position, which is also the
// tie-breaking priority.
type depNode struct {
	preds  []int // positions this node depends on, a window of scheduler.preds
	lat    int   // the op's latency
	height int   // critical-path height (priority)
	done   bool
}

// scheduler holds the scratch state scheduleBlock reuses from block to
// block, so scheduling a program allocates per block only its MOP list.
// The zero value is ready to use.
type scheduler struct {
	lowered []isa.Op // lowered[i] is instruction i through ToISA
	nodes   []depNode
	preds   []int     // every node's predecessors, node after node
	mops    []isa.MOP // the block's MOPs, copied out when it is done
	ready   []int
	// lastDef holds 1 + the position of the register's last definition
	// (0: none so far); lastUses the positions that read it since. Both
	// are back at their zero state between blocks.
	lastDef  [regSlots]int
	lastUses [regSlots][]int
}

// scheduleBlock schedules b into sb, whose ops land in ops (len(b.Instrs)
// long); every MOP of sb is a capped window of that array.
func (s *scheduler) scheduleBlock(sb *Block, b *ir.Block, ops []isa.Op) error {
	*sb = Block{
		ID:          b.ID,
		Fn:          b.Fn,
		TakenTarget: b.TakenTarget,
		FallTarget:  b.FallTarget,
		Callee:      b.Callee,
		TakenProb:   b.TakenProb,
	}
	n := len(b.Instrs)
	if n == 0 {
		return nil
	}

	// Lower every op before any table is indexed by its registers.
	s.lowered = s.lowered[:0]
	for _, in := range b.Instrs {
		op, err := lower(in)
		if err != nil {
			return err
		}
		s.lowered = append(s.lowered, op)
	}
	nodes := s.buildDeps(b.Instrs)

	// Critical-path heights by reverse topological sweep (positions are a
	// topological order because dependences always point backward).
	for i := range nodes {
		nodes[i].lat = b.Instrs[i].Info().Latency
		nodes[i].height = nodes[i].lat
	}
	for i := n - 1; i >= 0; i-- {
		for _, p := range nodes[i].preds {
			if h := nodes[i].height + nodes[p].lat; nodes[p].height < h {
				nodes[p].height = h
			}
		}
	}

	branchIdx := -1
	if b.Instrs[n-1].IsBranch() {
		branchIdx = n - 1
	}

	scheduled := 0
	s.mops = s.mops[:0]
	for scheduled < n {
		// Collect ready nodes: all predecessors issued (latency collapses
		// to MOP ordering; the fetch-side model streams one MOP per cycle).
		ready := s.ready[:0]
		for i := range nodes {
			if nodes[i].done {
				continue
			}
			ok := true
			for _, p := range nodes[i].preds {
				if !nodes[p].done {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, i)
			}
		}
		s.ready = ready
		if len(ready) == 0 {
			return fmt.Errorf("dependence cycle among %d unscheduled ops", n-scheduled)
		}
		slices.SortFunc(ready, func(x, y int) int {
			if hx, hy := nodes[x].height, nodes[y].height; hx != hy {
				return cmp.Compare(hy, hx)
			}
			return cmp.Compare(x, y)
		})

		var issued [isa.IssueWidth]int
		width, mem := 0, 0
		for _, i := range ready {
			if width == isa.IssueWidth {
				break
			}
			in := b.Instrs[i]
			if in.IsMemory() && mem == isa.MemUnits {
				continue
			}
			// The branch must land in the final MOP: it issues only if
			// every other unscheduled op is issuing right now.
			if i == branchIdx && width != n-scheduled-1 {
				continue
			}
			issued[width] = i
			width++
			if in.IsMemory() {
				mem++
			}
		}
		if width == 0 {
			return fmt.Errorf("no issuable ops despite %d ready", len(ready))
		}
		mop := isa.MOP(ops[scheduled : scheduled+width : scheduled+width])
		for j, i := range issued[:width] {
			mop[j] = s.lowered[i]
			nodes[i].done = true
		}
		mop.SealTails()
		s.mops = append(s.mops, mop)
		scheduled += width
	}
	sb.Ops = ops
	sb.MOPs = slices.Clone(s.mops)
	return nil
}

// lower lowers one instruction through ToISA and also requires every
// register it reads or writes, including fields its format does not
// encode, to be architectural: the dependence builder indexes its
// tables by register.
func lower(in *ir.Instr) (isa.Op, error) {
	op, err := ToISA(in)
	if err != nil {
		return op, err
	}
	var buf [4]ir.Reg
	for _, r := range append(in.AppendUses(buf[:0]), in.Def()) {
		if r.IsValid() && (r.Class > ir.ClassPred || r.N < 0 || r.N >= 32) {
			return isa.Op{}, fmt.Errorf("sched: unallocated register %v", r)
		}
	}
	return op, nil
}

// buildDeps constructs the intra-block dependence edges: register RAW, WAR
// and WAW; stores ordered against all memory operations; the terminating
// branch after everything (enforced at issue time). Every register of
// instrs must be architectural (see lower). The returned nodes and their
// predecessor lists are scratch, valid until the next call.
func (s *scheduler) buildDeps(instrs []*ir.Instr) []depNode {
	n := len(instrs)
	nodes := slices.Grow(s.nodes[:0], n)[:n]
	clear(nodes)
	s.nodes = nodes
	preds := s.preds[:0]
	lastStore := -1
	lastMem := -1
	var buf [4]ir.Reg
	for i, in := range instrs {
		first := len(preds)
		addDep := func(p int) {
			if p >= 0 && p != i {
				preds = append(preds, p)
			}
		}
		for _, u := range in.AppendUses(buf[:0]) {
			k := regSlot(u)
			addDep(s.lastDef[k] - 1) // RAW
			s.lastUses[k] = append(s.lastUses[k], i)
		}
		if d := in.Def(); d.IsValid() {
			k := regSlot(d)
			addDep(s.lastDef[k] - 1) // WAW
			for _, u := range s.lastUses[k] {
				addDep(u) // WAR
			}
			s.lastDef[k] = i + 1
			s.lastUses[k] = s.lastUses[k][:0]
		}
		if in.IsMemory() {
			if in.Code == isa.OpST || in.Code == isa.OpFST {
				// Stores are ordered after every prior memory op.
				addDep(lastMem)
				addDep(lastStore)
				lastStore = i
			} else {
				// Loads are ordered after prior stores only.
				addDep(lastStore)
			}
			lastMem = i
		}
		// Appends never rewrite earlier elements, so this window stays
		// right even after preds moves to a larger array.
		nodes[i].preds = preds[first:len(preds):len(preds)]
	}
	// Leave the register tables clean for the next block.
	for _, in := range instrs {
		for _, r := range append(in.AppendUses(buf[:0]), in.Def()) {
			if r.IsValid() {
				k := regSlot(r)
				s.lastDef[k], s.lastUses[k] = 0, s.lastUses[k][:0]
			}
		}
	}
	s.preds = preds
	return nodes
}

// ToISA lowers one register-allocated IR instruction to its TEPIC
// operation. Tail bits are left clear; MOP sealing sets them.
func ToISA(in *ir.Instr) (isa.Op, error) {
	info, ok := isa.Lookup(in.Type, in.Code)
	if !ok {
		return isa.Op{}, fmt.Errorf("sched: undefined opcode %v/%d", in.Type, in.Code)
	}
	o := isa.Op{Type: in.Type, Code: in.Code, Spec: in.Spec}
	if in.Pred.IsValid() {
		if in.Pred.N < 0 || in.Pred.N >= isa.NumPred {
			return isa.Op{}, fmt.Errorf("sched: unallocated predicate %v", in.Pred)
		}
		o.Pred = uint8(in.Pred.N)
	}
	reg := func(r ir.Reg) (uint8, error) {
		if !r.IsValid() {
			return 0, nil
		}
		if r.N < 0 || r.N >= 32 {
			return 0, fmt.Errorf("sched: unallocated register %v", r)
		}
		return uint8(r.N), nil
	}
	var err error
	switch info.Format {
	case isa.FmtIntALU:
		if o.Src1, err = reg(in.Src1); err != nil {
			return o, err
		}
		if o.Src2, err = reg(in.Src2); err != nil {
			return o, err
		}
		if o.Dest, err = reg(in.Dest); err != nil {
			return o, err
		}
		o.BHWX = in.BHWX
	case isa.FmtIntCmpp:
		if o.Src1, err = reg(in.Src1); err != nil {
			return o, err
		}
		if o.Src2, err = reg(in.Src2); err != nil {
			return o, err
		}
		if o.Dest, err = reg(in.Dest); err != nil {
			return o, err
		}
		o.BHWX = in.BHWX
	case isa.FmtLoadImm:
		o.Imm = uint32(in.Imm) & (1<<20 - 1)
		if o.Dest, err = reg(in.Dest); err != nil {
			return o, err
		}
	case isa.FmtFloat:
		if o.Src1, err = reg(in.Src1); err != nil {
			return o, err
		}
		if o.Src2, err = reg(in.Src2); err != nil {
			return o, err
		}
		if o.Dest, err = reg(in.Dest); err != nil {
			return o, err
		}
	case isa.FmtLoad:
		if o.Src1, err = reg(in.Src1); err != nil {
			return o, err
		}
		if o.Dest, err = reg(in.Dest); err != nil {
			return o, err
		}
		o.BHWX = in.BHWX
		o.Lat = uint8(info.Latency)
	case isa.FmtStore:
		if o.Src1, err = reg(in.Src1); err != nil {
			return o, err
		}
		if o.Src2, err = reg(in.Src2); err != nil {
			return o, err
		}
		o.BHWX = in.BHWX
	case isa.FmtBranch:
		if o.Src1, err = reg(in.Src1); err != nil {
			return o, err
		}
	}
	return o, nil
}
