// Package verify is the pipeline's machine verifier, modeled on LLVM's
// MachineVerifier: a diagnostic-producing static-analysis pass over every
// artifact the toolchain emits — the IR/CFG, the VLIW schedule, the
// Huffman/tailored encoding tables, and the program images with their
// Address Translation Tables.
//
// The compiler owns the code image end-to-end here (that is the paper's
// premise), so a single silent invariant violation — a non-prefix-free
// table, a missing tail bit, an ATT entry that does not cover a branch
// target — corrupts every downstream figure. Each check has a stable
// CheckID so tests, tooling and CI can assert on exactly which invariant
// broke; diagnostics carry artifact positions (function, block, op, bit
// offset) and render as text or JSON.
//
// Entry points mirror the pipeline stages: IR, Schedule, Encoding and
// Image, with Pipeline running all of them over a set of encoded
// artifacts. cmd/tepiclint is the command-line driver; cmd/tepiccc -verify
// runs the same checks inline after each stage.
package verify

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Severity classifies a diagnostic: errors are invariant violations that
// make downstream artifacts untrustworthy; warnings flag suspicious but
// survivable states (unreachable code, slack in a code space).
type Severity uint8

// The two severities.
const (
	SevWarn Severity = iota
	SevError
)

// String returns "warning" or "error".
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// MarshalJSON renders the severity as its string form.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// CheckID is the stable identifier of one verifier check. IDs are part of
// the tool's interface: tests and CI pin them, DESIGN.md catalogs them.
type CheckID string

// IR/CFG checks.
const (
	// CheckIRBlockID: a block's global ID must equal its layout index.
	CheckIRBlockID CheckID = "ir-block-id"
	// CheckIROpcode: every instruction's (type, opcode) pair must be defined.
	CheckIROpcode CheckID = "ir-opcode"
	// CheckIRBranchNotLast: a branch may only be a block's last instruction.
	CheckIRBranchNotLast CheckID = "ir-branch-not-last"
	// CheckIRTakenTarget: taken targets must name an existing block.
	CheckIRTakenTarget CheckID = "ir-taken-target"
	// CheckIRFallTarget: fall-through targets must name an existing block.
	CheckIRFallTarget CheckID = "ir-fall-target"
	// CheckIRCondGuard: conditional branches must carry a guard predicate.
	CheckIRCondGuard CheckID = "ir-cond-guard"
	// CheckIRCallee: calls must name an existing function.
	CheckIRCallee CheckID = "ir-callee"
	// CheckIRRegClass: operands must use the register class their position
	// demands (guards and cmpp destinations are predicate registers).
	CheckIRRegClass CheckID = "ir-reg-class"
	// CheckIRRegBound: post-allocation register numbers must fit their
	// architectural file (32 GPR / 32 FPR / 32 predicate).
	CheckIRRegBound CheckID = "ir-reg-bound"
	// CheckIRProbRange: annotated taken probabilities must lie in [0,1].
	CheckIRProbRange CheckID = "ir-prob-range"
	// CheckIRUnreachable (warning): every block should be reachable from
	// its function's entry.
	CheckIRUnreachable CheckID = "ir-unreachable"
	// CheckIRFlow (warning): profile execution counts should be conserved
	// across CFG edges (inflow ≈ block count).
	CheckIRFlow CheckID = "ir-flow"
)

// MOP/schedule checks.
const (
	// CheckMOPEmpty: a MOP must contain at least one operation.
	CheckMOPEmpty CheckID = "mop-empty"
	// CheckMOPWidth: a MOP may issue at most IssueWidth operations.
	CheckMOPWidth CheckID = "mop-width"
	// CheckMOPMemUnits: a MOP may issue at most MemUnits memory operations.
	CheckMOPMemUnits CheckID = "mop-mem-units"
	// CheckMOPTail: the tail bit must be set on exactly the last operation
	// of every MOP.
	CheckMOPTail CheckID = "mop-tail"
	// CheckMOPOpField: every operation's fields must fit the bit widths of
	// its format (isa.Op.Format) and its opcode must be defined.
	CheckMOPOpField CheckID = "mop-op-field"
	// CheckMOPFlatten: a block's flat op sequence must equal its MOPs
	// flattened in order.
	CheckMOPFlatten CheckID = "mop-flatten"
	// CheckMOPBranchNotLast: a branch may only be a block's last operation.
	CheckMOPBranchNotLast CheckID = "mop-branch-not-last"
	// CheckMOPTarget: scheduled control-flow targets must name existing
	// blocks, and a block with a taken target must end in a branch.
	CheckMOPTarget CheckID = "mop-target"
	// CheckMOPFuncEntry: every function entry must name an existing block.
	CheckMOPFuncEntry CheckID = "mop-func-entry"
	// CheckMOPAgainstIR: the schedule must carry exactly the IR's
	// instructions and control flow (op counts, targets, callees).
	CheckMOPAgainstIR CheckID = "mop-against-ir"
)

// Encoding checks.
const (
	// CheckHuffCanonical: codewords must follow the canonical assignment
	// determined by their lengths.
	CheckHuffCanonical CheckID = "enc-huff-canonical"
	// CheckHuffPrefix: no codeword may be a prefix of another.
	CheckHuffPrefix CheckID = "enc-huff-prefix"
	// CheckHuffKraftOver: the Kraft sum must not exceed 1 (codes would
	// collide).
	CheckHuffKraftOver CheckID = "enc-huff-kraft-over"
	// CheckHuffKraftSlack (warning): a Kraft sum below 1 wastes code space
	// (single-symbol alphabets are exempt).
	CheckHuffKraftSlack CheckID = "enc-huff-kraft-slack"
	// CheckHuffMaxLen: no codeword may exceed the scheme's length limit.
	CheckHuffMaxLen CheckID = "enc-huff-maxlen"
	// CheckHuffDup: a symbol may appear only once in a table.
	CheckHuffDup CheckID = "enc-huff-dup"
	// CheckEncCoverage: every symbol the program emits must be encodable
	// under the scheme's tables.
	CheckEncCoverage CheckID = "enc-coverage"
	// CheckEncSize: an encoder's size accounting (BlockBits) must agree
	// with the bits it actually writes.
	CheckEncSize CheckID = "enc-size"
	// CheckTailorOpcode: every emitted (type, opcode) pair must exist in
	// the tailored ISA.
	CheckTailorOpcode CheckID = "enc-tailor-opcode"
	// CheckTailorWidth: every emitted field value must fit its tailored
	// width (or match its hardwired constant).
	CheckTailorWidth CheckID = "enc-tailor-width"
)

// Image/ATT/layout checks.
const (
	// CheckImgBlockCount: the image must describe every program block.
	CheckImgBlockCount CheckID = "img-block-count"
	// CheckImgExtent: every block's [Addr, Addr+Bytes) must lie within the
	// image data.
	CheckImgExtent CheckID = "img-extent"
	// CheckImgOverlap: no two blocks may overlap in the image.
	CheckImgOverlap CheckID = "img-overlap"
	// CheckImgGap (warning): blocks should tile the image without gaps.
	CheckImgGap CheckID = "img-gap"
	// CheckImgCounts: per-block op/MOP counts must match the schedule.
	CheckImgCounts CheckID = "img-counts"
	// CheckImgDecode: every block must decode back to its scheduled
	// operations.
	CheckImgDecode CheckID = "img-decode"
	// CheckImgOrder: blocks must be placed in the declared layout order.
	CheckImgOrder CheckID = "img-order"
	// CheckATTMissing: every non-base image must carry an ATT.
	CheckATTMissing CheckID = "att-missing"
	// CheckATTCount: the ATT must hold one entry per block.
	CheckATTCount CheckID = "att-count"
	// CheckATTSorted: under natural layout, original addresses must be
	// strictly increasing (the ATB's lookup order).
	CheckATTSorted CheckID = "att-sorted"
	// CheckATTOverlap: translated (encoded) ranges must not overlap.
	CheckATTOverlap CheckID = "att-overlap"
	// CheckATTEntry: every entry must agree with the image block it
	// translates to (address, size, op/MOP counts) and carry the block's
	// original address in the program (image.OrigAddrs).
	CheckATTEntry CheckID = "att-entry"
	// CheckATTTarget: every branch target must be translatable (have an
	// in-range ATT entry).
	CheckATTTarget CheckID = "att-target"
	// CheckATTRoundTrip: the ATT must survive its ROM wire format.
	CheckATTRoundTrip CheckID = "att-roundtrip"
	// CheckATBInfo: the per-block table uploaded into the ATB must name
	// existing fall-through blocks.
	CheckATBInfo CheckID = "atb-info"
)

// Simulation checks (internal/simcheck): dynamic cross-checks of the
// IFetch simulator — a differential diff against an independent
// analytical oracle, intra-result accounting identities, metamorphic
// invariants across configuration perturbations, and a fault-injection
// matrix asserting typed rejection of malformed inputs.
const (
	// CheckSimOracle: every counter of a simulation result must equal the
	// analytical oracle's independent recomputation exactly.
	CheckSimOracle CheckID = "sim-oracle"
	// CheckSimIdentity: a result's counters must satisfy the pipeline's
	// conservation laws (L0 filter accounting, line-granular bus volume).
	CheckSimIdentity CheckID = "sim-identity"
	// CheckSimMetaPerfect: perfect next-block prediction must never
	// increase cycles and must record zero mispredictions.
	CheckSimMetaPerfect CheckID = "sim-meta-perfect"
	// CheckSimMetaLRU: growing associativity at fixed sets must never
	// increase misses or fetched lines (the LRU stack property).
	CheckSimMetaLRU CheckID = "sim-meta-lru"
	// CheckSimMetaAdditive: replaying a self-concatenated trace must
	// yield exactly additive operation counts.
	CheckSimMetaAdditive CheckID = "sim-meta-additive"
	// CheckSimFault: injected faults (corrupt images, malformed traces,
	// degenerate geometries) must be rejected with the documented typed
	// error — never accepted, never a panic.
	CheckSimFault CheckID = "sim-fault"
	// CheckSimStream: the incremental (RunStream) replays of a trace at
	// any chunk size must be bit-identical — every counter, including
	// BitFlips and ATBHitRate — to the sequential Sim.Run, and match the
	// analytical oracle's streaming recomputation.
	CheckSimStream CheckID = "sim-stream"
)

// Pos locates a diagnostic within an artifact. Fields are -1 when not
// applicable; Bit is a bit offset within the containing operation or
// image (check-dependent).
type Pos struct {
	Func  int `json:"func"`
	Block int `json:"block"`
	Op    int `json:"op"`
	Bit   int `json:"bit"`
}

// NoPos is the position of artifact-global diagnostics.
var NoPos = Pos{Func: -1, Block: -1, Op: -1, Bit: -1}

// At returns a block-level position.
func At(block int) Pos { return Pos{Func: -1, Block: block, Op: -1, Bit: -1} }

// AtOp returns an op-level position.
func AtOp(block, op int) Pos { return Pos{Func: -1, Block: block, Op: op, Bit: -1} }

// String renders the position compactly, e.g. "fn2/b14/op3".
func (p Pos) String() string {
	s := ""
	if p.Func >= 0 {
		s += fmt.Sprintf("fn%d", p.Func)
	}
	if p.Block >= 0 {
		if s != "" {
			s += "/"
		}
		s += fmt.Sprintf("b%d", p.Block)
	}
	if p.Op >= 0 {
		if s != "" {
			s += "/"
		}
		s += fmt.Sprintf("op%d", p.Op)
	}
	if p.Bit >= 0 {
		if s != "" {
			s += "/"
		}
		s += fmt.Sprintf("bit%d", p.Bit)
	}
	if s == "" {
		return "-"
	}
	return s
}

// Diag is one verifier finding.
type Diag struct {
	Check CheckID  `json:"check"`
	Sev   Severity `json:"severity"`
	Stage string   `json:"stage"` // "ir", "sched", "encoding:full", "image:full", ...
	Pos   Pos      `json:"pos"`
	Msg   string   `json:"msg"`
}

// String renders the diagnostic on one line.
func (d Diag) String() string {
	return fmt.Sprintf("%s: %s: [%s] %s: %s", d.Stage, d.Sev, d.Check, d.Pos, d.Msg)
}

// Report collects diagnostics across verifier passes.
type Report struct {
	Diags []Diag
}

// Errorf records an error diagnostic.
func (r *Report) Errorf(stage string, check CheckID, pos Pos, format string, args ...any) {
	r.Diags = append(r.Diags, Diag{Check: check, Sev: SevError, Stage: stage,
		Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Warnf records a warning diagnostic.
func (r *Report) Warnf(stage string, check CheckID, pos Pos, format string, args ...any) {
	r.Diags = append(r.Diags, Diag{Check: check, Sev: SevWarn, Stage: stage,
		Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Merge appends another report's diagnostics.
func (r *Report) Merge(other *Report) {
	if other != nil {
		r.Diags = append(r.Diags, other.Diags...)
	}
}

// Errors counts error-severity diagnostics.
func (r *Report) Errors() int {
	n := 0
	for _, d := range r.Diags {
		if d.Sev == SevError {
			n++
		}
	}
	return n
}

// Warnings counts warning-severity diagnostics.
func (r *Report) Warnings() int { return len(r.Diags) - r.Errors() }

// OK reports whether the report carries no errors (warnings allowed).
func (r *Report) OK() bool { return r.Errors() == 0 }

// Has reports whether any diagnostic carries the given check ID.
func (r *Report) Has(check CheckID) bool {
	for _, d := range r.Diags {
		if d.Check == check {
			return true
		}
	}
	return false
}

// ByCheck returns every diagnostic with the given check ID.
func (r *Report) ByCheck(check CheckID) []Diag {
	var out []Diag
	for _, d := range r.Diags {
		if d.Check == check {
			out = append(out, d)
		}
	}
	return out
}

// Sort orders diagnostics by stage, severity (errors first), check and
// position, making output deterministic regardless of pass order.
func (r *Report) Sort() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Sev != b.Sev {
			return a.Sev > b.Sev
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Pos.Block != b.Pos.Block {
			return a.Pos.Block < b.Pos.Block
		}
		return a.Pos.Op < b.Pos.Op
	})
}

// WriteText renders the diagnostics one per line followed by a summary.
func (r *Report) WriteText(w io.Writer) error {
	for _, d := range r.Diags {
		if _, err := fmt.Fprintln(w, d); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%d error(s), %d warning(s)\n", r.Errors(), r.Warnings())
	return err
}

// jsonReport is the stable JSON envelope.
type jsonReport struct {
	Errors   int    `json:"errors"`
	Warnings int    `json:"warnings"`
	Diags    []Diag `json:"diagnostics"`
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	diags := r.Diags
	if diags == nil {
		diags = []Diag{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{Errors: r.Errors(), Warnings: r.Warnings(), Diags: diags})
}
