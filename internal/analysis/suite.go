// Package analysis assembles the repo's analyzer suite — the four
// tepicvet checks, each configured for this module's layout. cmd/tepicvet
// drives the suite over go-list patterns; CI and scripts/vet.sh run it
// alongside go vet and staticcheck. The individual analyzers live in
// subpackages and are built on the anz framework; see DESIGN.md §11 for
// the catalog and the annotation contract.
package analysis

import (
	"repro/internal/analysis/anz"
	"repro/internal/analysis/concsafety"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/stableid"
	"repro/internal/analysis/typederr"
)

// Suite returns the repo-configured analyzers in catalog order.
func Suite() []*anz.Analyzer {
	return []*anz.Analyzer{
		hotalloc.New(),
		typederr.New(typederr.DefaultConfig()),
		concsafety.New(),
		stableid.New(stableid.DefaultConfig()),
	}
}
