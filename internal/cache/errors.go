package cache

import "errors"

// The typed failure classes of the simulator's input validation. Every
// rejection NewOrgSim or a replay produces wraps exactly one of these, so
// callers (and the fault-injection suite in internal/simcheck) can
// classify failures with errors.Is instead of string matching.
var (
	// ErrMalformedTrace marks a trace whose events reference blocks (or
	// successors) outside the simulated program.
	ErrMalformedTrace = errors.New("cache: malformed trace")
	// ErrCorruptImage marks a program image whose block table and data
	// disagree — truncated data, out-of-extent or negative placements, or
	// a block count that does not match the scheduled program.
	ErrCorruptImage = errors.New("cache: corrupt image")
	// ErrBadGeometry marks a degenerate cache configuration (non-positive
	// sets, associativity or line size).
	ErrBadGeometry = errors.New("cache: bad geometry")
	// ErrBadConfig marks a simulator misconfiguration: an unknown
	// organization or predictor, a ROM image supplied (or omitted)
	// against the organization's spec, or RunStream asked to replay one
	// trace through Sims of different block counts (or through none).
	ErrBadConfig = errors.New("cache: bad configuration")
	// ErrNotExtractable marks an encoding the banked cache cannot serve:
	// a MOP that spans more than two lines (or decodes to nothing), so a
	// single banked reference cannot extract it.
	ErrNotExtractable = errors.New("cache: not extractable in one banked reference")
)
