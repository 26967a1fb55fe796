package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/scheme"
)

// coverageManifest is the committed snapshot of what the equivalence
// corpus covers: every scheme (exercised scheme-by-scheme in
// TestPipelineFacade's decode-equivalence loop), every pairing (pinned
// benchmark×pairing in golden_results.json and replayed through the
// simcheck oracle matrix by SimLint), and every organization, each of
// which a pairing must reach. TestCoverageManifest is the completeness
// gate for the scheme, organization and pairing tables: adding or
// deleting a row without extending the corpus fails it until this
// manifest — and with it the golden snapshot — is deliberately
// regenerated.
type coverageManifest struct {
	Schemes  []string `json:"schemes"`
	Orgs     []string `json:"orgs"`
	Pairings []string `json:"pairings"`
}

// currentCoverage derives the manifest from the live tables. An
// organization no pairing reaches has no golden result, so it fails
// here rather than entering the manifest uncovered.
func currentCoverage(t *testing.T) coverageManifest {
	t.Helper()
	var m coverageManifest
	m.Schemes = append(m.Schemes, SchemeNames()...)
	reached := map[cache.Org]bool{}
	for _, p := range scheme.Pairings() {
		m.Pairings = append(m.Pairings, p.Name)
		if _, ok := p.Org.Spec(); !ok {
			t.Fatalf("pairing %s references unknown org %d", p.Name, int(p.Org))
		}
		reached[p.Org] = true
	}
	for _, org := range cache.Orgs() {
		if !reached[org] {
			t.Errorf("organization %s has no pairing, so no golden result covers it", org)
		}
		m.Orgs = append(m.Orgs, org.String())
	}
	sort.Strings(m.Schemes)
	sort.Strings(m.Orgs)
	sort.Strings(m.Pairings)
	return m
}

// TestCoverageManifest keeps testdata/coverage_manifest.json in sync
// with the tables and the golden snapshot. Regenerate with
// GOLDEN_UPDATE=1 alongside the golden results.
func TestCoverageManifest(t *testing.T) {
	path := filepath.Join("testdata", "coverage_manifest.json")
	got := currentCoverage(t)

	if os.Getenv("GOLDEN_UPDATE") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read coverage manifest (regenerate with GOLDEN_UPDATE=1): %v", err)
	}
	var want coverageManifest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	diffStrings(t, "schemes", got.Schemes, want.Schemes)
	diffStrings(t, "orgs", got.Orgs, want.Orgs)
	diffStrings(t, "pairings", got.Pairings, want.Pairings)

	// Every manifest pairing must be pinned in the golden snapshot for
	// every benchmark, and the snapshot must contain nothing else.
	gdata, err := os.ReadFile(filepath.Join("testdata", "golden_results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Results map[string]json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(gdata, &golden); err != nil {
		t.Fatal(err)
	}
	benchmarks := Options{}.benchmarks()
	for _, bench := range benchmarks {
		for _, p := range want.Pairings {
			key := fmt.Sprintf("%s/%s", bench, p)
			if _, ok := golden.Results[key]; !ok {
				t.Errorf("golden snapshot missing %s: pairing %s is not pinned (GOLDEN_UPDATE=1)", key, p)
			}
		}
	}
	if want := len(benchmarks) * len(want.Pairings); len(golden.Results) != want {
		t.Errorf("golden snapshot has %d results, manifest implies %d", len(golden.Results), want)
	}
}

func diffStrings(t *testing.T, what string, got, want []string) {
	t.Helper()
	gs, ws := map[string]bool{}, map[string]bool{}
	for _, s := range got {
		gs[s] = true
	}
	for _, s := range want {
		ws[s] = true
	}
	for _, s := range got {
		if !ws[s] {
			t.Errorf("%s: %q in the tables but missing from coverage manifest (GOLDEN_UPDATE=1)", what, s)
		}
	}
	for _, s := range want {
		if !gs[s] {
			t.Errorf("%s: %q in coverage manifest but no longer in the tables", what, s)
		}
	}
}
