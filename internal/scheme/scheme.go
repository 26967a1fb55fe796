// Package scheme holds the fixed tables behind the paper's co-design
// argument (Larin & Conte §4–§5): an encoding scheme and the fetch
// organization built for it are one point, not two switch statements.
// The package lists every encoding (how to construct its encoder, its
// canonical content key for artifact caching, whether its image carries
// an Address Translation Table) and every pairing of an encoding with a
// cache organization (internal/cache's OrgSpec table). The toolchain
// (internal/core), the figure experiments and the CLIs resolve schemes
// and pairings here; adding a new (encoding, organization) pair is one
// row in each table (builtin.go and internal/cache/org.go), not an edit
// to the simulator or the build pipeline. The tables are written once
// at package initialization and only read afterwards.
package scheme

import (
	"slices"
	"strings"

	"repro/internal/cache"
	"repro/internal/compress"
	"repro/internal/sched"
)

// BaseName is the self-indexed baseline encoding every other scheme's
// ATT and compression ratio are measured against.
const BaseName = "base"

// Groups classify schemes for sweeps and reports.
const (
	// GroupStream marks the six multi-stream Huffman configurations of
	// §2.2 that StreamSweep explores.
	GroupStream = "stream"
)

// Scheme bundles everything the toolchain needs to build one encoding.
type Scheme struct {
	// Name is the scheme's table key and report label.
	Name string
	// Group optionally classifies the scheme for sweeps (e.g.
	// GroupStream); the built-in singleton schemes leave it empty.
	Group string
	// Build constructs the scheme's encoder for a scheduled program.
	Build func(p *sched.Program) (compress.Encoder, error)
	// ContentKey is the canonical content descriptor folded into
	// artifact-cache keys: it must change whenever the configuration
	// changes meaning (cut points, code-length bounds, ...), and must
	// not depend on the display name alone.
	ContentKey string
	// SelfIndexed marks the encoding whose image needs no Address
	// Translation Table because block addresses are its own address
	// space (the base encoding).
	SelfIndexed bool
}

// Lookup resolves a scheme by name.
func Lookup(name string) (Scheme, bool) {
	for _, s := range schemes {
		if s.Name == name {
			return s, true
		}
	}
	return Scheme{}, false
}

// Names returns every scheme name in table order — the toolchain's
// report order.
func Names() []string {
	out := make([]string, len(schemes))
	for i, s := range schemes {
		out[i] = s.Name
	}
	return out
}

// GroupNames returns the names of every scheme in a group, in table
// order.
func GroupNames(group string) []string {
	var out []string
	for _, s := range schemes {
		if s.Group == group {
			out = append(out, s.Name)
		}
	}
	return out
}

// Pairing is one co-designed (encoding, fetch organization) point: the
// scheme whose image the cache indexes, the cache organization built
// for it, and — for miss-path-decompression organizations — the scheme
// of the ROM image behind the bus.
type Pairing struct {
	// Name is the organization-level label used in figures ("Base",
	// "Compressed", ...); for the built-ins it matches Org.String().
	Name string
	// Org is the fetch organization in internal/cache's OrgSpec table.
	Org cache.Org
	// CacheScheme names the encoding held by the cache.
	CacheScheme string
	// ROMScheme names the encoding of the ROM image behind the bus;
	// non-empty exactly when the organization's spec sets NeedsROM.
	ROMScheme string
	// Study marks the pairings of the paper's cache study (Figures 13
	// and 14).
	Study bool
}

// Pairings returns every pairing in table order.
func Pairings() []Pairing { return slices.Clone(pairings) }

// PairingByName resolves a pairing label case-insensitively (CLI flags
// use lower case, figures the capitalized form).
func PairingByName(name string) (Pairing, bool) {
	for _, p := range pairings {
		if strings.EqualFold(p.Name, name) {
			return p, true
		}
	}
	return Pairing{}, false
}

// PairingFor returns the first pairing of an organization.
func PairingFor(org cache.Org) (Pairing, bool) {
	for _, p := range pairings {
		if p.Org == org {
			return p, true
		}
	}
	return Pairing{}, false
}

// StudyPairings returns the pairings of the paper's cache study
// (Figures 13/14) in table order.
func StudyPairings() []Pairing {
	var out []Pairing
	for _, p := range pairings {
		if p.Study {
			out = append(out, p)
		}
	}
	return out
}
