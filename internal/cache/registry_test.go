package cache

import (
	"strings"
	"testing"

	"repro/internal/image"
)

// TestOrgRegistryBuiltins pins the built-in table order (the Org
// constants are indices into the OrgSpec table) and name resolution.
func TestOrgRegistryBuiltins(t *testing.T) {
	want := []struct {
		org  Org
		name string
	}{
		{OrgBase, "Base"},
		{OrgTailored, "Tailored"},
		{OrgCompressed, "Compressed"},
		{OrgCodePack, "CodePack"},
	}
	orgs := Orgs()
	if len(orgs) < len(want) {
		t.Fatalf("%d organizations, want >= %d", len(orgs), len(want))
	}
	for _, w := range want {
		spec, ok := w.org.Spec()
		if !ok || spec.Name != w.name {
			t.Errorf("Org(%d).Spec() = %+v, %v; want %s", int(w.org), spec, ok, w.name)
		}
		if got, ok := OrgByName(strings.ToUpper(w.name)); !ok || got != w.org {
			t.Errorf("OrgByName(%s) = %v, %v; want %v (case-insensitive)", w.name, got, ok, w.org)
		}
		if w.org.String() != w.name {
			t.Errorf("Org(%d).String() = %q, want %q", int(w.org), w.org.String(), w.name)
		}
	}
	if spec, ok := OrgCompressed.Spec(); !ok || !spec.HasL0 {
		t.Error("Compressed spec must carry the L0 buffer")
	}
	if spec, ok := OrgCodePack.Spec(); !ok || !spec.NeedsROM {
		t.Error("CodePack spec must need a ROM image")
	}
}

// TestOrgRegistryValidation checks the OrgSpec table: Orgs() lists the
// constants in order, every spec has a Name and a Decode stage, names are
// unique ignoring case and round-trip through OrgByName, and Org values
// outside the table and unknown names resolve to nothing.
func TestOrgRegistryValidation(t *testing.T) {
	names := map[string]bool{}
	for i, org := range Orgs() {
		if org != Org(i) {
			t.Errorf("Orgs()[%d] = %d; want the constant order", i, int(org))
		}
		spec, ok := org.Spec()
		if !ok {
			t.Fatalf("Org(%d) has no spec", i)
		}
		if spec.Name == "" || spec.Decode == nil {
			t.Errorf("Org(%d) spec %+v lacks a Name or a Decode stage", i, spec)
		}
		key := strings.ToLower(spec.Name)
		if names[key] {
			t.Errorf("organization name %q is not unique ignoring case", spec.Name)
		}
		names[key] = true
		if got, ok := OrgByName(spec.Name); !ok || got != org {
			t.Errorf("OrgByName(%q) = %v, %v; want %v", spec.Name, got, ok, org)
		}
	}
	for _, org := range []Org{-1, Org(len(Orgs())), Org(1 << 20)} {
		if _, ok := org.Spec(); ok {
			t.Errorf("Org(%d).Spec() resolved an organization outside the table", int(org))
		}
	}
	if _, ok := OrgByName("nonesuch"); ok {
		t.Error("OrgByName resolved an unknown name")
	}
}

func TestPredictorRegistry(t *testing.T) {
	kinds := PredictorKinds()
	for _, want := range []PredictorKind{PredictorBimodal, PredictorGShare, PredictorPAs} {
		found := false
		for _, k := range kinds {
			if k == want {
				found = true
			}
		}
		if !found {
			t.Errorf("PredictorKinds() = %v is missing %s", kinds, want)
		}
	}

	if kind, err := ParsePredictor(""); err != nil || kind != PredictorDefault {
		t.Errorf("ParsePredictor(\"\") = %v, %v; want default, nil", kind, err)
	}
	if kind, err := ParsePredictor("gshare"); err != nil || kind != PredictorGShare {
		t.Errorf("ParsePredictor(gshare) = %v, %v", kind, err)
	}
	if _, err := ParsePredictor("nonesuch"); err == nil {
		t.Error("ParsePredictor accepted an unknown name")
	}
}

// TestDecompressorVolumes pins the three volume rules the organizations
// compose: pass-through moves the block's cache lines on both paths,
// hit-path decompression re-derives the hit volume from compressed
// bytes, miss-path decompression re-derives the miss volume from the ROM
// block.
func TestDecompressorVolumes(t *testing.T) {
	blk := image.Block{Bytes: 100} // 100 bytes at addr 0: 3 lines of 40B, 4 of 32B
	rom := image.Block{Bytes: 35}
	const line40, line32 = 40, 32

	pt := PassThrough{}
	if got := pt.HitLines(blk, line40); got != 3 {
		t.Errorf("PassThrough hit = %d, want 3", got)
	}
	if got := pt.MissLines(blk, rom, line40); got != 3 {
		t.Errorf("PassThrough miss = %d, want 3", got)
	}

	hd := HitDecompress{}
	if got := hd.HitLines(blk, line32); got != 4 { // ceil(100/32)
		t.Errorf("HitDecompress hit = %d, want 4", got)
	}
	if got := hd.MissLines(blk, rom, line32); got != 4 { // blk.Lines(32)
		t.Errorf("HitDecompress miss = %d, want 4", got)
	}

	md := MissDecompress{}
	if got := md.HitLines(blk, line40); got != 3 { // cache lines, uncompressed
		t.Errorf("MissDecompress hit = %d, want 3", got)
	}
	if got := md.MissLines(blk, rom, line40); got != 1 { // ceil(35/40)
		t.Errorf("MissDecompress miss = %d, want 1", got)
	}
}
