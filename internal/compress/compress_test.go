package compress

import (
	"testing"

	"repro/internal/bitio"
	"repro/internal/isa"
	"repro/internal/regalloc"
	"repro/internal/sched"
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

func roundTripBlocks(t *testing.T, enc Encoder, sp *sched.Program) {
	t.Helper()
	for _, b := range sp.Blocks {
		if len(b.Ops) == 0 {
			continue
		}
		var w bitio.Writer
		if err := enc.EncodeBlock(&w, b.Ops); err != nil {
			t.Fatalf("%s: encode block %d: %v", enc.Name(), b.ID, err)
		}
		if got, want := w.BitLen(), enc.BlockBits(b.Ops); got < want {
			t.Fatalf("%s: block %d wrote %d bits, BlockBits says %d",
				enc.Name(), b.ID, got, want)
		}
		r := bitio.NewReader(w.Bytes())
		back, err := enc.DecodeBlock(r, len(b.Ops))
		if err != nil {
			t.Fatalf("%s: decode block %d: %v", enc.Name(), b.ID, err)
		}
		for i := range back {
			if back[i] != b.Ops[i] {
				t.Fatalf("%s: block %d op %d mismatch:\n got %v\nwant %v",
					enc.Name(), b.ID, i, back[i].String(), b.Ops[i].String())
			}
		}
	}
}

func TestBaseRoundTrip(t *testing.T) {
	sp := compile(t, "compress")
	roundTripBlocks(t, NewBase(), sp)
}

func TestByteHuffmanRoundTrip(t *testing.T) {
	sp := compile(t, "compress")
	enc, err := NewByteHuffman(sp)
	if err != nil {
		t.Fatal(err)
	}
	roundTripBlocks(t, enc, sp)
}

func TestStreamHuffmanRoundTripAllConfigs(t *testing.T) {
	sp := compile(t, "compress")
	for _, cfg := range append([]StreamConfig{FullConfig}, StreamConfigs...) {
		t.Run(cfg.Name, func(t *testing.T) {
			enc, err := NewStreamHuffman(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			roundTripBlocks(t, enc, sp)
		})
	}
}

func TestFullHuffmanRoundTrip(t *testing.T) {
	sp := compile(t, "m88ksim")
	enc, err := NewFullHuffman(sp)
	if err != nil {
		t.Fatal(err)
	}
	roundTripBlocks(t, enc, sp)
}

// The paper's central Figure 5 ordering: full < tailored-ish < byte/stream
// < base. Here we check the Huffman side: full must beat byte and stream,
// and everything must beat base.
func TestCompressionOrdering(t *testing.T) {
	sp := compile(t, "go")
	base := NewBase()
	byteE, err := NewByteHuffman(sp)
	if err != nil {
		t.Fatal(err)
	}
	fullE, err := NewFullHuffman(sp)
	if err != nil {
		t.Fatal(err)
	}
	streamE, err := NewStreamHuffman(sp, StreamConfigs[0])
	if err != nil {
		t.Fatal(err)
	}
	totalBits := func(e Encoder) int {
		n := 0
		for _, b := range sp.Blocks {
			n += e.BlockBits(b.Ops)
		}
		return n
	}
	b0 := totalBits(base)
	bb, bs, bf := totalBits(byteE), totalBits(streamE), totalBits(fullE)
	if bf >= bb || bf >= bs {
		t.Errorf("full (%d bits) should beat byte (%d) and stream (%d)", bf, bb, bs)
	}
	if bb >= b0 || bs >= b0 {
		t.Errorf("byte (%d) and stream (%d) should beat base (%d)", bb, bs, b0)
	}
	// Figure 5's full-scheme result is ~30%% of original; allow a wide
	// band but catch gross miscalibration.
	ratio := float64(bf) / float64(b0)
	if ratio < 0.10 || ratio > 0.55 {
		t.Errorf("full-scheme ratio %.3f outside plausible Figure 5 band", ratio)
	}
}

func TestCodeLengthBound(t *testing.T) {
	sp := compile(t, "gcc")
	for _, mk := range []func() (Encoder, error){
		func() (Encoder, error) { return NewByteHuffman(sp) },
		func() (Encoder, error) { return NewFullHuffman(sp) },
		func() (Encoder, error) { return NewStreamHuffman(sp, StreamConfigs[1]) },
	} {
		enc, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range enc.Tables() {
			if tab.MaxLen() > CodeLenLimit {
				t.Errorf("%s: code length %d exceeds hardware bound %d",
					enc.Name(), tab.MaxLen(), CodeLenLimit)
			}
		}
	}
}

func TestStreamConfigValidate(t *testing.T) {
	bad := StreamConfig{Name: "bad", Cuts: []int{0}}
	if err := bad.Validate(); err == nil {
		t.Error("accepted cut at 0")
	}
	bad = StreamConfig{Name: "bad", Cuts: []int{40}}
	if err := bad.Validate(); err == nil {
		t.Error("accepted cut at 40")
	}
	bad = StreamConfig{Name: "bad", Cuts: []int{10, 10}}
	if err := bad.Validate(); err == nil {
		t.Error("accepted non-increasing cuts")
	}
	if _, err := NewStreamHuffman(compile(t, "compress"), bad); err == nil {
		t.Error("NewStreamHuffman accepted invalid config")
	}
}

func TestStreamSegments(t *testing.T) {
	for _, tc := range []struct {
		cfg  StreamConfig
		want [][2]int
	}{
		{StreamConfig{Name: "x", Cuts: []int{9, 19, 34}}, [][2]int{{0, 9}, {9, 19}, {19, 34}, {34, 40}}},
		// The whole-op alphabet: one uncut 40-bit stream.
		{FullConfig, [][2]int{{0, 40}}},
	} {
		segs := tc.cfg.Segments()
		if len(segs) != len(tc.want) {
			t.Fatalf("%s: got %d segments, want %d", tc.cfg.Name, len(segs), len(tc.want))
		}
		for i := range tc.want {
			if segs[i] != tc.want[i] {
				t.Errorf("%s: segment %d = %v, want %v", tc.cfg.Name, i, segs[i], tc.want[i])
			}
		}
	}
}

func TestStreamFigure3Configuration(t *testing.T) {
	// The Figure 3 split has 4 streams cut at field boundaries, with the
	// opcode bits [0,9) as stream 0 and the predicate in the last stream.
	cfg := Figure3Config
	if got := len(cfg.Segments()); got != 4 {
		t.Errorf("Figure 3 config has %d streams, want 4", got)
	}
	if cfg.Segments()[0] != [2]int{0, 9} {
		t.Errorf("stream 0 is %v, want [0,9)", cfg.Segments()[0])
	}
	// Reported configurations exist with the paper's names.
	names := map[string]bool{}
	for _, c := range StreamConfigs {
		names[c.Name] = true
	}
	if !names["stream"] || !names["stream_1"] {
		t.Error("reported configurations stream/stream_1 missing")
	}
	if len(StreamConfigs) != 6 {
		t.Errorf("expected 6 explored configurations, got %d", len(StreamConfigs))
	}
}

func TestByteDecoderSmallest(t *testing.T) {
	// §3.5: byte-wise has the smallest decoder (dictionary ≤ 256 entries,
	// symbol width 8).
	sp := compile(t, "go")
	be, err := NewByteHuffman(sp)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFullHuffman(sp)
	if err != nil {
		t.Fatal(err)
	}
	bt, ft := be.Tables()[0], fe.Tables()[0]
	if bt.Entries() > 256 {
		t.Errorf("byte dictionary has %d entries", bt.Entries())
	}
	if bt.SymbolBits() > 8 {
		t.Errorf("byte symbol width %d > 8", bt.SymbolBits())
	}
	if ft.Entries() <= bt.Entries() {
		t.Errorf("full dictionary (%d) should dwarf byte dictionary (%d)",
			ft.Entries(), bt.Entries())
	}
	if ft.SymbolBits() > isa.OpBits {
		t.Errorf("full symbol width %d > 40", ft.SymbolBits())
	}
}

func TestPredicateStreamSkew(t *testing.T) {
	// The paper motivates stream compression with the predicate field
	// being "most of the time set to true": its stream must compress far
	// below its 6-bit raw width (L1+PREDICATE in [34,40)).
	sp := compile(t, "vortex")
	enc, err := NewStreamHuffman(sp, Figure3Config)
	if err != nil {
		t.Fatal(err)
	}
	predTab := enc.Tables()[3]
	if predTab.MeanLen() > 3.0 {
		t.Errorf("predicate stream mean length %.2f bits; expected heavy skew (< 3)",
			predTab.MeanLen())
	}
}
