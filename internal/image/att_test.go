package image_test

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/image"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/scheme"
	"repro/internal/workload"
)

// TestBuildATT builds every benchmark's image under every scheme that
// carries an ATT and checks the table against the base image, the
// layout whose block addresses the Orig column stands for.
func TestBuildATT(t *testing.T) {
	for _, bench := range workload.Benchmarks {
		t.Run(bench, func(t *testing.T) {
			p, err := workload.GenerateBenchmark(bench)
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
			base, err := image.Build(sp, compress.NewBase())
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range scheme.Names() {
				sc, _ := scheme.Lookup(name)
				if sc.SelfIndexed {
					continue
				}
				checkATT(t, sp, sc, base)
			}
		})
	}
}

func checkATT(t *testing.T, sp *sched.Program, sc scheme.Scheme, base *image.Image) {
	t.Helper()
	enc, err := sc.Build(sp)
	if err != nil {
		t.Fatal(err)
	}
	im, err := image.Build(sp, enc)
	if err != nil {
		t.Fatal(err)
	}
	att, err := image.BuildATT(sp, im)
	if err != nil {
		t.Fatal(err)
	}
	if len(att.Entries) != len(sp.Blocks) {
		t.Fatalf("%s: ATT has %d entries, want %d", sc.Name, len(att.Entries), len(sp.Blocks))
	}
	for i, e := range att.Entries {
		b := im.Blocks[i]
		if e.Orig != base.Blocks[i].Addr {
			t.Fatalf("%s: entry %d Orig %d, base image places the block at %d",
				sc.Name, i, e.Orig, base.Blocks[i].Addr)
		}
		if e.Enc != b.Addr || e.Bytes != b.Bytes || e.Ops != b.Ops || e.MOPs != b.MOPs {
			t.Fatalf("%s: entry %d %+v disagrees with image block %+v", sc.Name, i, e, b)
		}
	}
	if att.CompressedBytes <= 0 || att.CompressedBytes > att.RawBytes {
		t.Errorf("%s: compressed ATT %d bytes vs raw %d", sc.Name, att.CompressedBytes, att.RawBytes)
	}
	// The paper's §3.3: the ATT adds roughly 15.5% to the image. Accept a
	// generous band; EXPERIMENTS.md records the exact measured value.
	im.ATT = att
	overhead := float64(att.CompressedBytes) / float64(base.CodeBytes)
	if overhead <= 0.005 || overhead > 0.40 {
		t.Errorf("%s: ATT overhead %.3f of original image; implausible", sc.Name, overhead)
	}
	if im.TotalBytes() != im.CodeBytes+att.CompressedBytes {
		t.Errorf("%s: TotalBytes does not include ATT", sc.Name)
	}
}
