// Package regalloc performs linear-scan register allocation, mapping the
// IR's unbounded virtual registers onto the TEPIC architectural files
// (32 GPRs, 32 FPRs, 32 predicate registers, with p0 reserved as the
// hardwired always-true predicate).
//
// Allocation scans each function's registers in a per-function preference
// order: a deterministic permutation of the file seeded by the function
// index. Within a function the same few registers are reused heavily
// (which is what the paper's tailored encoding and whole-op Huffman
// compression exploit), while across functions assignments differ the way
// real allocators' do — keeping program-wide per-field entropy realistic
// for the byte- and stream-based alphabets. Low pressure still means few
// distinct registers per function, preserving the paper's "if no more
// than four registers of some type are live at the same time ... it needs
// only two bits" effect at function scope.
//
// When pressure exceeds the file size the allocator reassigns the
// register whose current owner's live range ends furthest in the future
// (a steal). Steals are counted in the Result; the synthetic workloads
// are generated with bounded working sets precisely so steals stay rare.
package regalloc

import (
	"fmt"
	"slices"

	"repro/internal/ir"
	"repro/internal/isa"
)

// Result reports allocation statistics for one program.
type Result struct {
	GPRUsed     int // distinct physical GPRs assigned
	FPRUsed     int
	PredUsed    int // distinct predicate registers assigned (excluding p0)
	Steals      int // pressure-overflow reassignments
	MaxPressure struct {
		GPR, FPR, Pred int // peak simultaneous live registers
	}
}

// Allocate rewrites every virtual register in the program to an
// architectural register, function by function, and returns aggregate
// statistics. The program is modified in place.
func Allocate(p *ir.Program) (Result, error) {
	var res Result
	var a allocator
	for _, f := range p.Funcs {
		fr, err := a.allocateFunc(f)
		if err != nil {
			return res, fmt.Errorf("regalloc: function %s: %w", f.Name, err)
		}
		res.Steals += fr.Steals
		res.GPRUsed = max(res.GPRUsed, fr.GPRUsed)
		res.FPRUsed = max(res.FPRUsed, fr.FPRUsed)
		res.PredUsed = max(res.PredUsed, fr.PredUsed)
		res.MaxPressure.GPR = max(res.MaxPressure.GPR, fr.MaxPressure.GPR)
		res.MaxPressure.FPR = max(res.MaxPressure.FPR, fr.MaxPressure.FPR)
		res.MaxPressure.Pred = max(res.MaxPressure.Pred, fr.MaxPressure.Pred)
	}
	return res, nil
}

// vregs numbers one function's virtual registers densely, class by
// class: the i-th smallest distinct number of a class is virtual i. The
// allocator's per-virtual tables are indexed by it, so their size is
// bounded by the function's size whatever numbers it uses.
type vregs struct {
	nums [ir.ClassPred + 1][]int // sorted distinct numbers per class
}

// number collects and sorts f's register numbers.
func (v *vregs) number(f *ir.Func) {
	for c := range v.nums {
		v.nums[c] = v.nums[c][:0]
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, r := range [...]ir.Reg{in.Src1, in.Src2, in.Pred, in.Dest} {
				if r.IsValid() && r.Class <= ir.ClassPred {
					v.nums[r.Class] = append(v.nums[r.Class], r.N)
				}
			}
		}
	}
	for c := range v.nums {
		slices.Sort(v.nums[c])
		v.nums[c] = slices.Compact(v.nums[c])
	}
}

// index returns r's dense number; r must occur in the numbered function.
func (v *vregs) index(r ir.Reg) int {
	nums := v.nums[r.Class]
	// Generated code numbers each function's virtuals from a base with
	// no gaps, so the number's offset from the smallest is its index.
	if i := r.N - nums[0]; i >= 0 && i < len(nums) && nums[i] == r.N {
		return i
	}
	i, _ := slices.BinarySearch(nums, r.N)
	return i
}

// classFile describes one register file's allocation state. Virtual
// registers are their dense numbers (see vregs); -1 is none.
type classFile struct {
	size    int
	first   int   // first allocatable register (1 for predicates: p0 reserved)
	pref    []int // assignment preference order over [first, size)
	owner   []int // owner[r]: virtual holding physical r
	inUse   []bool
	lastUse []int // lastUse[v]: linear position of v's last use, -1 before any
	mapping []int // mapping[v]: physical register of v, -1 before its def
	live    int
	peak    int
	used    []bool // physical registers ever assigned
	nused   int
	steals  int
}

// reset readies the file for a function with nvirt virtuals in the
// class, reusing its tables.
func (cf *classFile) reset(size, first int, seed int64, nvirt int) {
	*cf = classFile{
		size: size, first: first,
		pref:    cf.pref[:0],
		owner:   fill(cf.owner, size, -1),
		inUse:   fill(cf.inUse, size, false),
		used:    fill(cf.used, size, false),
		lastUse: fill(cf.lastUse, nvirt, -1),
		mapping: fill(cf.mapping, nvirt, -1),
	}
	for r := first; r < size; r++ {
		cf.pref = append(cf.pref, r)
	}
	// Deterministic per-function permutation (xorshift-based
	// Fisher–Yates); seed 0 keeps the identity order.
	if seed != 0 {
		s := uint64(seed)
		for i := len(cf.pref) - 1; i > 0; i-- {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			j := int(s % uint64(i+1))
			cf.pref[i], cf.pref[j] = cf.pref[j], cf.pref[i]
		}
	}
}

// fill returns s resized to n elements, every one set to x.
func fill[T any](s []T, n int, x T) []T {
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		s[i] = x
	}
	return s
}

// assign gives a fresh definition a physical register, stealing the
// furthest-ending live register when the file is full.
func (cf *classFile) assign(v int) int {
	for _, r := range cf.pref {
		if !cf.inUse[r] {
			cf.inUse[r] = true
			cf.owner[r] = v
			cf.mapping[v] = r
			if !cf.used[r] {
				cf.used[r] = true
				cf.nused++
			}
			cf.live++
			if cf.live > cf.peak {
				cf.peak = cf.live
			}
			return r
		}
	}
	// Steal: evict the owner whose last use is furthest away. The file
	// is full, so every register has an owner.
	best, bestEnd := cf.first, -1
	for r := cf.first; r < cf.size; r++ {
		if end := cf.lastUse[cf.owner[r]]; end > bestEnd {
			best, bestEnd = r, end
		}
	}
	cf.steals++
	cf.owner[best] = v
	cf.mapping[v] = best
	cf.peak = cf.size
	return best
}

// release frees a register at its owner's last use.
func (cf *classFile) release(v int, idx int) {
	r := cf.mapping[v]
	if r < 0 || cf.owner[r] != v || cf.lastUse[v] != idx {
		return
	}
	if cf.inUse[r] {
		cf.inUse[r] = false
		cf.live--
	}
}

// allocator holds the tables allocateFunc reuses from function to
// function. The zero value is ready to use.
type allocator struct {
	vregs
	gpr, fpr, prd classFile
}

func (a *allocator) fileFor(c ir.RegClass) *classFile {
	switch c {
	case ir.ClassGPR:
		return &a.gpr
	case ir.ClassFPR:
		return &a.fpr
	case ir.ClassPred:
		return &a.prd
	}
	return nil
}

func (a *allocator) allocateFunc(f *ir.Func) (Result, error) {
	a.number(f)
	seed := int64(f.ID)*2654435761 + 1
	a.gpr.reset(isa.NumGPR, 0, seed, len(a.nums[ir.ClassGPR]))
	a.fpr.reset(isa.NumFPR, 0, seed+1, len(a.nums[ir.ClassFPR]))
	// The predicate file keeps the identity (lowest-first) order: real
	// predicated code concentrates on a handful of predicate registers
	// program-wide, which is what lets the paper's tailored encoding
	// shrink the PREDICATE field to two or three bits (its Figure 4).
	a.prd.reset(isa.NumPred, isa.PredAlways+1, 0, len(a.nums[ir.ClassPred]))

	// Pass 1: last-use positions over the function's linear order.
	var buf [3]ir.Reg
	idx := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, u := range in.AppendUses(buf[:0]) {
				if cf := a.fileFor(u.Class); cf != nil {
					cf.lastUse[a.index(u)] = idx
				}
			}
			// A def with no later use dies immediately.
			if d := in.Def(); d.IsValid() {
				if cf := a.fileFor(d.Class); cf != nil {
					if v := a.index(d); cf.lastUse[v] < 0 {
						cf.lastUse[v] = idx
					}
				}
			}
			idx++
		}
	}

	// Pass 2: scan, rewrite, free.
	idx = 0
	rewrite := func(r *ir.Reg) error {
		if !r.IsValid() || (r.Class == ir.ClassPred && r.N == isa.PredAlways) {
			return nil
		}
		phys := a.fileFor(r.Class).mapping[a.index(*r)]
		if phys < 0 {
			return fmt.Errorf("use of %v before definition", *r)
		}
		r.N = phys
		return nil
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			// Collect the uses' virtuals before rewriting mutates them.
			type useRef struct {
				v  int
				cf *classFile
			}
			var refs [3]useRef
			nrefs := 0
			for _, u := range in.AppendUses(buf[:0]) {
				if cf := a.fileFor(u.Class); cf != nil && !(u.Class == ir.ClassPred && u.N == isa.PredAlways) {
					refs[nrefs] = useRef{a.index(u), cf}
					nrefs++
				}
			}
			if err := rewrite(&in.Src1); err != nil {
				return Result{}, err
			}
			if err := rewrite(&in.Src2); err != nil {
				return Result{}, err
			}
			if err := rewrite(&in.Pred); err != nil {
				return Result{}, err
			}
			for _, ref := range refs[:nrefs] {
				ref.cf.release(ref.v, idx)
			}
			if d := in.Def(); d.IsValid() {
				cf := a.fileFor(d.Class)
				v := a.index(d)
				in.Dest.N = cf.assign(v)
				cf.release(v, idx) // dead-on-arrival defs free immediately
			}
			idx++
		}
	}

	var res Result
	res.GPRUsed = a.gpr.nused
	res.FPRUsed = a.fpr.nused
	res.PredUsed = a.prd.nused
	res.Steals = a.gpr.steals + a.fpr.steals + a.prd.steals
	res.MaxPressure.GPR = a.gpr.peak
	res.MaxPressure.FPR = a.fpr.peak
	res.MaxPressure.Pred = a.prd.peak
	return res, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
