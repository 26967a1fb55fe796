package image

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/tailor"
	"repro/internal/workload"
)

func compile(t testing.TB, name string) *sched.Program {
	t.Helper()
	p, err := workload.GenerateBenchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regalloc.Allocate(p); err != nil {
		t.Fatal(err)
	}
	sp, err := sched.Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestBuildBaseImage(t *testing.T) {
	sp := compile(t, "compress")
	im, err := Build(sp, compress.NewBase())
	if err != nil {
		t.Fatal(err)
	}
	if len(im.Blocks) != len(sp.Blocks) {
		t.Fatalf("image has %d blocks, program has %d", len(im.Blocks), len(sp.Blocks))
	}
	// Base encoding: every block is exactly ceil(ops*40/8) bytes.
	for i, b := range im.Blocks {
		want := (sp.Blocks[i].NumOps()*40 + 7) / 8
		if b.Bytes != want {
			t.Errorf("block %d: %d bytes, want %d", i, b.Bytes, want)
		}
		if b.Ops != sp.Blocks[i].NumOps() || b.MOPs != sp.Blocks[i].NumMOPs() {
			t.Errorf("block %d: op/MOP counts wrong", i)
		}
	}
	// Blocks tile the image contiguously.
	addr := 0
	for i, b := range im.Blocks {
		if b.Addr != addr {
			t.Fatalf("block %d at %d, expected %d", i, b.Addr, addr)
		}
		addr += b.Bytes
	}
	if im.CodeBytes != addr {
		t.Errorf("CodeBytes %d != %d", im.CodeBytes, addr)
	}
}

func TestRoundTripAllSchemes(t *testing.T) {
	sp := compile(t, "compress")
	encs := []compress.Encoder{compress.NewBase()}
	if e, err := compress.NewByteHuffman(sp); err == nil {
		encs = append(encs, e)
	} else {
		t.Fatal(err)
	}
	if e, err := compress.NewFullHuffman(sp); err == nil {
		encs = append(encs, e)
	} else {
		t.Fatal(err)
	}
	if e, err := compress.NewStreamHuffman(sp, compress.StreamConfigs[0]); err == nil {
		encs = append(encs, e)
	} else {
		t.Fatal(err)
	}
	if e, err := tailor.New(sp); err == nil {
		encs = append(encs, e)
	} else {
		t.Fatal(err)
	}
	for _, enc := range encs {
		im, err := Build(sp, enc)
		if err != nil {
			t.Fatalf("%s: %v", enc.Name(), err)
		}
		if err := VerifyRoundTrip(im, sp, enc); err != nil {
			t.Fatalf("%s: %v", enc.Name(), err)
		}
	}
}

func TestRatios(t *testing.T) {
	sp := compile(t, "go")
	base, err := Build(sp, compress.NewBase())
	if err != nil {
		t.Fatal(err)
	}
	full, err := compress.NewFullHuffman(sp)
	if err != nil {
		t.Fatal(err)
	}
	fullIm, err := Build(sp, full)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := tailor.New(sp)
	if err != nil {
		t.Fatal(err)
	}
	tlIm, err := Build(sp, tl)
	if err != nil {
		t.Fatal(err)
	}
	rf, rt := fullIm.Ratio(base), tlIm.Ratio(base)
	if rf >= rt {
		t.Errorf("full ratio %.3f should beat tailored %.3f", rf, rt)
	}
	if rt >= 1 {
		t.Errorf("tailored ratio %.3f should beat base", rt)
	}
	t.Logf("go: full=%.3f tailored=%.3f", rf, rt)
}

func TestBlockLines(t *testing.T) {
	b := Block{Addr: 30, Bytes: 5}
	if got := b.Lines(32); got != 2 {
		t.Errorf("straddling block lines = %d, want 2", got)
	}
	b = Block{Addr: 32, Bytes: 32}
	if got := b.Lines(32); got != 1 {
		t.Errorf("aligned block lines = %d, want 1", got)
	}
	b = Block{Addr: 0, Bytes: 0}
	if got := b.Lines(32); got != 0 {
		t.Errorf("empty block lines = %d, want 0", got)
	}
	b = Block{Addr: 10, Bytes: 100}
	if got := b.Lines(32); got != 4 {
		t.Errorf("long block lines = %d, want 4", got)
	}
}

func TestATTSerializeParseRoundTrip(t *testing.T) {
	sp := compile(t, "compress")
	full, err := compress.NewFullHuffman(sp)
	if err != nil {
		t.Fatal(err)
	}
	fullIm, err := Build(sp, full)
	if err != nil {
		t.Fatal(err)
	}
	att, err := BuildATT(sp, fullIm)
	if err != nil {
		t.Fatal(err)
	}
	raw := SerializeATT(att.Entries)
	if len(raw) != att.RawBytes {
		t.Errorf("serialized %d bytes, BuildATT measured %d", len(raw), att.RawBytes)
	}
	back, err := ParseATT(raw, len(att.Entries))
	if err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i] != att.Entries[i] {
			t.Fatalf("entry %d mismatch: %+v != %+v", i, back[i], att.Entries[i])
		}
	}
	if _, err := ParseATT(raw[:len(raw)-1], len(att.Entries)); err == nil {
		t.Error("ParseATT accepted truncated table")
	}
	if _, err := ParseATT([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 1); err == nil {
		t.Error("ParseATT accepted varint overflow")
	}
}

// TestBuildATTMismatch checks BuildATT refuses an image whose block
// count differs from the program's, in either direction.
func TestBuildATTMismatch(t *testing.T) {
	spA := compile(t, "compress")
	spB := compile(t, "go")
	if len(spA.Blocks) == len(spB.Blocks) {
		t.Fatal("fixture programs have equal block counts")
	}
	imA, _ := Build(spA, compress.NewBase())
	imB, _ := Build(spB, compress.NewBase())
	if _, err := BuildATT(spA, imB); err == nil {
		t.Error("BuildATT accepted an image with a different block count")
	}
	if _, err := BuildATT(spB, imA); err == nil {
		t.Error("BuildATT accepted an image with a different block count")
	}
}
