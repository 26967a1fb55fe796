package core

import (
	"testing"

	"repro/internal/bitio"
	"repro/internal/compress"
	"repro/internal/emu"
	"repro/internal/sched"
	"repro/internal/workload"
)

// decodedProgram reconstructs a runnable scheduled program from an
// encoded image: every block's operations are decoded back out of the
// image bits and grafted onto the original control-flow skeleton. If the
// encoding is faithful this program is semantically identical to the one
// the compiler produced.
func decodedProgram(t *testing.T, c *Compiled, scheme string) *sched.Program {
	t.Helper()
	im, err := c.Image(scheme)
	if err != nil {
		t.Fatalf("image %s: %v", scheme, err)
	}
	enc, err := c.Encoder(scheme)
	if err != nil {
		t.Fatalf("encoder %s: %v", scheme, err)
	}
	r := bitio.NewReader(im.Data)
	clone := &sched.Program{
		Name:        c.Prog.Name,
		FuncEntries: append([]int(nil), c.Prog.FuncEntries...),
	}
	for i, b := range c.Prog.Blocks {
		if err := r.SeekBit(im.Blocks[i].Addr * 8); err != nil {
			t.Fatalf("%s block %d: %v", scheme, b.ID, err)
		}
		ops, err := enc.DecodeBlock(r, len(b.Ops))
		if err != nil {
			t.Fatalf("%s decode block %d: %v", scheme, b.ID, err)
		}
		nb := *b
		nb.Ops = ops
		clone.Blocks = append(clone.Blocks, &nb)
	}
	return clone
}

// diffSteps bounds the differential runs. The generated benchmarks model
// long-running programs, so execution is cut at a block boundary and the
// architectural prefixes compared.
func diffSteps(t *testing.T) int64 {
	if testing.Short() {
		return 50_000
	}
	return 250_000
}

// TestDifferentialExecution is the end-to-end encoding correctness gate:
// for every example benchmark, the original scheduled program and the
// program decoded back out of each scheme's image must produce identical
// architectural traces — same block sequence, same step count, same
// register files, predicates and memory.
func TestDifferentialExecution(t *testing.T) {
	benchmarks := workload.Benchmarks
	if testing.Short() {
		benchmarks = benchmarks[:2]
	}
	steps := diffSteps(t)
	d := NewDriver(0)
	for _, name := range benchmarks {
		c, err := d.CompileBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		refMachine := emu.NewMachine()
		refTrace, refDone, err := refMachine.RunBounded(c.Prog, steps)
		if err != nil {
			t.Fatalf("%s: reference run: %v", name, err)
		}
		refMem := refMachine.MemSnapshot()

		for _, scheme := range driverSchemes {
			sp := decodedProgram(t, c, scheme)
			m := emu.NewMachine()
			tr, done, err := m.RunBounded(sp, steps)
			if err != nil {
				t.Errorf("%s/%s: decoded run: %v", name, scheme, err)
				continue
			}
			if done != refDone {
				t.Errorf("%s/%s: termination differs: decoded done=%v, reference done=%v",
					name, scheme, done, refDone)
				continue
			}
			if m.Steps != refMachine.Steps {
				t.Errorf("%s/%s: step count %d != reference %d",
					name, scheme, m.Steps, refMachine.Steps)
			}
			if tr.Ops != refTrace.Ops || tr.MOPs != refTrace.MOPs {
				t.Errorf("%s/%s: trace totals (%d ops, %d MOPs) != reference (%d, %d)",
					name, scheme, tr.Ops, tr.MOPs, refTrace.Ops, refTrace.MOPs)
			}
			if len(tr.Events) != len(refTrace.Events) {
				t.Errorf("%s/%s: %d trace events != reference %d",
					name, scheme, len(tr.Events), len(refTrace.Events))
				continue
			}
			for i := range tr.Events {
				if tr.Events[i] != refTrace.Events[i] {
					t.Errorf("%s/%s: event %d = %+v, reference %+v",
						name, scheme, i, tr.Events[i], refTrace.Events[i])
					break
				}
			}
			if m.GPR != refMachine.GPR {
				t.Errorf("%s/%s: GPR file differs after run", name, scheme)
			}
			if m.FPR != refMachine.FPR {
				t.Errorf("%s/%s: FPR file differs after run", name, scheme)
			}
			if m.Pred != refMachine.Pred {
				t.Errorf("%s/%s: predicate file differs after run", name, scheme)
			}
			mem := m.MemSnapshot()
			if len(mem) != len(refMem) {
				t.Errorf("%s/%s: %d written memory words != reference %d",
					name, scheme, len(mem), len(refMem))
				continue
			}
			for addr, v := range refMem {
				if mem[addr] != v {
					t.Errorf("%s/%s: mem[%d] = %d, reference %d",
						name, scheme, addr, mem[addr], v)
					break
				}
			}
		}
	}
}

// TestFastReferenceDecodeEquivalence is the fast-decoder equivalence
// harness: for every benchmark and every scheme built on Huffman tables,
// each image block decoded through the table-driven fast path
// (DecodeBlock and DecodeWords) and through the bit-by-bit reference
// oracle (ReferenceDecodeBlock) must yield identical operations (as
// words for DecodeWords) and leave every reader at the same bit offset
// — the whole-corpus complement to the random-stream
// FuzzFastDecodeEquivalence. DecodeWords appends to a dst that already
// holds words, which must come back untouched.
func TestFastReferenceDecodeEquivalence(t *testing.T) {
	benchmarks := workload.Benchmarks
	if testing.Short() {
		benchmarks = benchmarks[:2]
	}
	prefix := []uint64{0xdead, 0xbeef}
	d := NewDriver(0)
	for _, name := range benchmarks {
		c, err := d.CompileBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range driverSchemes {
			enc, err := c.Encoder(scheme)
			if err != nil {
				t.Fatalf("%s/%s: encoder: %v", name, scheme, err)
			}
			ref, ok := enc.(compress.ReferenceDecoder)
			if !ok {
				continue // base, tailored: no Huffman decoder pair
			}
			im, err := c.Image(scheme)
			if err != nil {
				t.Fatalf("%s/%s: image: %v", name, scheme, err)
			}
			fr := bitio.NewReader(im.Data)
			rr := bitio.NewReader(im.Data)
			wr := bitio.NewReader(im.Data)
			dst := make([]uint64, 0, 256)
			for i, b := range c.Prog.Blocks {
				for _, r := range []*bitio.Reader{fr, rr, wr} {
					if err := r.SeekBit(im.Blocks[i].Addr * 8); err != nil {
						t.Fatalf("%s/%s block %d: %v", name, scheme, b.ID, err)
					}
				}
				fops, ferr := enc.DecodeBlock(fr, len(b.Ops))
				rops, rerr := ref.ReferenceDecodeBlock(rr, len(b.Ops))
				dst = append(dst[:0], prefix...)
				words, werr := enc.DecodeWords(wr, len(b.Ops), dst)
				if ferr != nil || rerr != nil || werr != nil {
					t.Fatalf("%s/%s block %d: fast err %v, words err %v, reference err %v",
						name, scheme, b.ID, ferr, werr, rerr)
				}
				if fr.Offset() != rr.Offset() || wr.Offset() != rr.Offset() {
					t.Errorf("%s/%s block %d: fast consumed through bit %d, words %d, reference %d",
						name, scheme, b.ID, fr.Offset(), wr.Offset(), rr.Offset())
				}
				if dst[0] != prefix[0] || dst[1] != prefix[1] || words[0] != prefix[0] || words[1] != prefix[1] {
					t.Fatalf("%s/%s block %d: DecodeWords changed the dst prefix to %#x (returned %#x)",
						name, scheme, b.ID, dst[:2], words[:2])
				}
				words = words[len(prefix):]
				if len(fops) != len(rops) || len(words) != len(rops) {
					t.Fatalf("%s/%s block %d: %d ops, %d words vs reference %d",
						name, scheme, b.ID, len(fops), len(words), len(rops))
				}
				for j := range fops {
					if fops[j] != rops[j] {
						t.Errorf("%s/%s block %d op %d: fast %v, reference %v",
							name, scheme, b.ID, j, fops[j].String(), rops[j].String())
						break
					}
					if want := rops[j].Encode(); words[j] != want {
						t.Errorf("%s/%s block %d op %d: word %#x, reference %#x",
							name, scheme, b.ID, j, words[j], want)
						break
					}
				}
			}
		}
	}
}

// TestMeasureDecodeThroughput exercises the measurement entry point on
// one benchmark: Huffman schemes must report a positive rate for both
// decoders and identical per-pass symbol streams (enforced internally);
// schemes without a decoder pair must report nothing.
func TestMeasureDecodeThroughput(t *testing.T) {
	d := NewDriver(0)
	c, err := d.CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	dt, err := c.MeasureDecodeThroughput("full", 1)
	if err != nil {
		t.Fatal(err)
	}
	if dt == nil {
		t.Fatal("full scheme reported no decode throughput")
	}
	if dt.Fast.OpsPerSec <= 0 || dt.Reference.OpsPerSec <= 0 || dt.Speedup <= 0 {
		t.Fatalf("non-positive rates: %+v", dt)
	}
	if dt.Fast.Ops == 0 || dt.Fast.Bits == 0 {
		t.Fatalf("no work measured: %+v", dt)
	}
	// Every ratio is a median over at least 15 rounds, inside its
	// quartiles.
	if dt.Rounds < 15 {
		t.Errorf("ratios from %d rounds, want at least 15", dt.Rounds)
	}
	for _, r := range []struct {
		name string
		med  float64
		q    [2]float64
	}{
		{"speedup", dt.Speedup, dt.SpeedupQuartiles},
		{"batch_speedup", dt.BatchSpeedup, dt.BatchSpeedupQuartiles},
		{"lane_gain", dt.LaneGain, dt.LaneGainQuartiles},
	} {
		if !(0 < r.q[0] && r.q[0] <= r.med && r.med <= r.q[1]) {
			t.Errorf("%s: median %g outside its quartiles %v", r.name, r.med, r.q)
		}
	}
	snap := d.Stats().Snapshot()
	if _, ok := snap.Throughput["decode.fast.full"]; !ok {
		t.Error("driver registry missing decode.fast.full throughput")
	}
	if _, ok := snap.Throughput["decode.reference.full"]; !ok {
		t.Error("driver registry missing decode.reference.full throughput")
	}
	if dt, err := c.MeasureDecodeThroughput("base", 1); err != nil || dt != nil {
		t.Fatalf("base scheme: got (%+v, %v), want (nil, nil)", dt, err)
	}
}

// TestRunBoundedTermination checks the bounded runner's two exits: a
// program that terminates inside the bound reports done=true with the
// same trace Run produces, and a bound hit returns the partial prefix
// without error.
func TestRunBoundedTermination(t *testing.T) {
	d := NewDriver(0)
	c, err := d.CompileBenchmark("compress")
	if err != nil {
		t.Fatal(err)
	}
	m := emu.NewMachine()
	tr, done, err := m.RunBounded(c.Prog, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Skip("benchmark terminated inside the small bound; nothing to cut")
	}
	if len(tr.Events) == 0 {
		t.Fatal("bound hit but no trace prefix returned")
	}
	// A longer bound must extend the prefix, not change it.
	m2 := emu.NewMachine()
	tr2, _, err := m2.RunBounded(c.Prog, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Events) <= len(tr.Events) {
		t.Fatalf("longer bound gave %d events, shorter gave %d", len(tr2.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if tr.Events[i] != tr2.Events[i] {
			t.Fatalf("event %d differs between bounds: %+v vs %+v", i, tr.Events[i], tr2.Events[i])
		}
	}
}
