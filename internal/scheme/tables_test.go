package scheme_test

import (
	"strings"
	"testing"

	"repro/internal/scheme"
)

// TestRegistryValidation checks the scheme and pairing tables against
// each other and the organization table: every pairing names existing
// schemes and an existing organization, carries a ROM scheme exactly
// when its organization needs one, and every name and content key is
// unique. Unknown names resolve to nothing. The organization table's own
// rules are checked by cache.TestOrgRegistryValidation.
func TestRegistryValidation(t *testing.T) {
	keys := map[string]string{}
	names := map[string]bool{}
	for _, name := range scheme.Names() {
		s, ok := scheme.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed for a listed scheme", name)
		}
		if names[name] {
			t.Errorf("scheme %q listed twice", name)
		}
		names[name] = true
		if s.Build == nil {
			t.Errorf("scheme %q has no Build", name)
		}
		if s.ContentKey == "" {
			t.Errorf("scheme %q has no ContentKey", name)
		} else if prev, dup := keys[s.ContentKey]; dup {
			t.Errorf("schemes %q and %q share ContentKey %q", prev, name, s.ContentKey)
		}
		keys[s.ContentKey] = name
	}

	pairNames := map[string]bool{}
	for _, p := range scheme.Pairings() {
		key := strings.ToLower(p.Name)
		if pairNames[key] {
			t.Errorf("pairing name %q is not unique ignoring case", p.Name)
		}
		pairNames[key] = true
		spec, ok := p.Org.Spec()
		if !ok {
			t.Errorf("pairing %s names unknown organization %d", p.Name, int(p.Org))
			continue
		}
		if _, ok := scheme.Lookup(p.CacheScheme); !ok {
			t.Errorf("pairing %s names unknown cache scheme %q", p.Name, p.CacheScheme)
		}
		if spec.NeedsROM != (p.ROMScheme != "") {
			t.Errorf("pairing %s: organization %s NeedsROM=%v but ROM scheme is %q",
				p.Name, spec.Name, spec.NeedsROM, p.ROMScheme)
		}
		if p.ROMScheme != "" {
			if _, ok := scheme.Lookup(p.ROMScheme); !ok {
				t.Errorf("pairing %s names unknown ROM scheme %q", p.Name, p.ROMScheme)
			}
		}
	}

	if _, ok := scheme.Lookup("nonesuch"); ok {
		t.Error("Lookup resolved an unknown scheme")
	}
	if _, ok := scheme.PairingByName("nonesuch"); ok {
		t.Error("PairingByName resolved an unknown pairing")
	}
}

// TestBuiltinRegistry pins the built-in table order the reports
// rely on and the study subset of Figures 13/14.
func TestBuiltinRegistry(t *testing.T) {
	names := scheme.Names()
	if len(names) < 10 || names[0] != scheme.BaseName {
		t.Fatalf("Names() = %v; want base first among >= 10 built-ins", names)
	}
	if got := scheme.GroupNames(scheme.GroupStream); len(got) != 6 {
		t.Errorf("GroupNames(stream) = %v; want the six §2.2 configurations", got)
	}
	var study []string
	for _, p := range scheme.StudyPairings() {
		study = append(study, p.Name)
	}
	want := []string{"Base", "Compressed", "Tailored"}
	if len(study) < 3 {
		t.Fatalf("StudyPairings() = %v; want at least %v", study, want)
	}
	for i, w := range want {
		if study[i] != w {
			t.Errorf("StudyPairings()[%d] = %s; want %s", i, study[i], w)
		}
	}
	for _, name := range []string{"base", "codepack", "COMPRESSED"} {
		if _, ok := scheme.PairingByName(name); !ok {
			t.Errorf("PairingByName(%q) failed; lookup should be case-insensitive", name)
		}
	}
}
