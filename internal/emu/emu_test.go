package emu

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/workload"
)

// dotProduct builds sum = Σ a[i]*b[i] over n elements, with arrays at
// addresses base..base+n-1 and base2..base2+n-1.
func dotProduct(t *testing.T, n int) *sched.Program {
	t.Helper()
	b := asm.NewProgram("dot")
	main := b.Func("main")

	init := main.Block()
	loop := main.Block()
	done := main.Block()

	r := asm.R
	p := asm.P
	// r1 = &a, r2 = &b, r3 = i, r4 = n, r5 = sum, r6 = one
	init.Ldi(r(1), 100).Ldi(r(2), 200).Ldi(r(3), 0).
		Ldi(r(4), int32(n)).Ldi(r(5), 0).Ldi(r(6), 1)

	// loop: r7 = a[i]; r8 = b[i]; r9 = r7*r8; sum += r9; i++; a++; b++
	loop.Ld(r(7), r(1)).Ld(r(8), r(2)).
		Mul(r(9), r(7), r(8)).
		Add(r(5), r(5), r(9)).
		Add(r(3), r(3), r(6)).
		Add(r(1), r(1), r(6)).
		Add(r(2), r(2), r(6)).
		Cmp(isa.OpCMPLT, p(1), r(3), r(4)).
		Brct(p(1), loop, 1-1.0/float64(n))

	done.Ret()

	irp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sched.Schedule(irp)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestInterpreterDotProduct(t *testing.T) {
	const n = 10
	sp := dotProduct(t, n)
	m := NewMachine()
	want := int64(0)
	for i := int64(0); i < n; i++ {
		m.Store(100+i, i+1)   // a[i] = i+1
		m.Store(200+i, 2*i+3) // b[i] = 2i+3
		want += (i + 1) * (2*i + 3)
	}
	tr, err := m.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.GPR[5]; got != want {
		t.Errorf("dot product = %d, want %d", got, want)
	}
	// Trace shape: init + n loop iterations + done.
	if tr.Len() != n+2 {
		t.Errorf("trace has %d events, want %d", tr.Len(), n+2)
	}
	if err := tr.Validate(len(sp.Blocks)); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
	if tr.Ops == 0 || tr.MOPs == 0 || tr.MOPs > tr.Ops {
		t.Errorf("implausible trace totals ops=%d mops=%d", tr.Ops, tr.MOPs)
	}
}

func TestInterpreterPredication(t *testing.T) {
	b := asm.NewProgram("pred")
	main := b.Func("main")
	blk := main.Block()
	r, p := asm.R, asm.P
	// r1=5, r2=9; p1 = (r1 > r2) = false; r3 = 111 if p1 (skipped);
	// p2 = (r1 < r2) = true; r4 = 222 if p2 (executes).
	blk.Ldi(r(1), 5).Ldi(r(2), 9).
		Cmp(isa.OpCMPGT, p(1), r(1), r(2)).
		Cmp(isa.OpCMPLT, p(2), r(1), r(2)).
		Ldi(r(3), 111).Guard(p(1)).
		Ldi(r(4), 222).Guard(p(2)).
		Ret()
	irp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sched.Schedule(irp)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	if _, err := m.Run(sp); err != nil {
		t.Fatal(err)
	}
	if m.GPR[3] != 0 {
		t.Errorf("predicated-off ldi executed: r3 = %d", m.GPR[3])
	}
	if m.GPR[4] != 222 {
		t.Errorf("predicated-on ldi skipped: r4 = %d", m.GPR[4])
	}
}

func TestInterpreterCallReturn(t *testing.T) {
	b := asm.NewProgram("call")
	main := b.Func("main")
	callee := b.Func("double")

	mb := main.Block()
	after := main.Block()
	r := asm.R
	mb.Ldi(r(1), 21).Call(callee)
	after.Mov(r(3), r(2)).Ret()

	cb := callee.Block()
	cb.Add(r(2), r(1), r(1)).Ret()

	irp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sched.Schedule(irp)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	tr, err := m.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if m.GPR[3] != 42 {
		t.Errorf("call result r3 = %d, want 42", m.GPR[3])
	}
	if tr.Len() != 3 {
		t.Errorf("trace length %d, want 3 (main, callee, after)", tr.Len())
	}
}

func TestInterpreterInfiniteLoopBounded(t *testing.T) {
	b := asm.NewProgram("spin")
	main := b.Func("main")
	blk := main.Block()
	blk.Jump(blk)
	irp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sched.Schedule(irp)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	m.MaxSteps = 1000
	if _, err := m.Run(sp); err == nil {
		t.Error("interpreter did not stop an infinite loop")
	}
}

func compileBench(t testing.TB, name string) *sched.Program {
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

func TestStochasticTraceShape(t *testing.T) {
	sp := compileBench(t, "compress")
	tr, err := StochasticTrace(sp, 1, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 20000 {
		t.Fatalf("trace length %d, want 20000", tr.Len())
	}
	if err := tr.Validate(len(sp.Blocks)); err != nil {
		t.Fatal(err)
	}
	// Loops mean some blocks execute many times.
	counts := tr.BlockCounts(len(sp.Blocks))
	maxC := int64(0)
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC < 50 {
		t.Errorf("hottest block executed %d times; expected loop reuse", maxC)
	}
	if fp := tr.Footprint(len(sp.Blocks)); fp < len(sp.Blocks)/4 {
		t.Errorf("footprint %d of %d blocks; walk too narrow", fp, len(sp.Blocks))
	}
}

func TestStochasticTraceDeterministic(t *testing.T) {
	sp := compileBench(t, "go")
	t1, err := StochasticTrace(sp, 7, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := StochasticTrace(sp, 7, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range t1.Events {
		if t1.Events[i] != t2.Events[i] {
			t.Fatalf("event %d differs between identical runs", i)
		}
	}
	t3, err := StochasticTrace(sp, 8, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range t1.Events {
		if t1.Events[i] != t3.Events[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestStochasticBranchBias(t *testing.T) {
	// Measured taken rates must roughly track the annotated probabilities.
	sp := compileBench(t, "vortex")
	tr, err := StochasticTrace(sp, 3, 100000, 4)
	if err != nil {
		t.Fatal(err)
	}
	taken := map[int]int{}
	total := map[int]int{}
	for _, e := range tr.Events {
		b := sp.Blocks[e.Block()]
		if !b.HasCondBranch() {
			continue
		}
		total[e.Block()]++
		if e.Taken() {
			taken[e.Block()]++
		}
	}
	checked := 0
	for id, n := range total {
		if n < 300 {
			continue
		}
		got := float64(taken[id]) / float64(n)
		want := sp.Blocks[id].TakenProb
		if got < want-0.15 || got > want+0.15 {
			t.Errorf("block %d: measured taken rate %.2f vs profile %.2f (n=%d)",
				id, got, want, n)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no hot conditional branches in window")
	}
}

func TestStochasticCallStack(t *testing.T) {
	sp := compileBench(t, "li") // call-heavy profile
	tr, err := StochasticTrace(sp, 5, 50000, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Call blocks must be followed by their callee's entry.
	for i := 0; i+1 < len(tr.Events); i++ {
		b := sp.Blocks[tr.Events[i].Block()]
		if b.EndsInCall() {
			want := sp.FuncEntries[b.Callee]
			if got := tr.Events[i+1].Block(); got != want {
				t.Fatalf("event %d: call to fn %d followed by block %d, want %d",
					i, b.Callee, got, want)
			}
		}
	}
}

func TestStochasticEmptyProgram(t *testing.T) {
	if _, err := StochasticTrace(&sched.Program{}, 1, 10, 1); err == nil {
		t.Error("accepted empty program")
	}
	m := NewMachine()
	if _, err := m.Run(&sched.Program{}); err == nil {
		t.Error("interpreter accepted empty program")
	}
}

func TestTruncate(t *testing.T) {
	if truncate(0x1ff, isa.SizeByte) != -1 {
		t.Error("byte truncation")
	}
	if truncate(0x1ffff, isa.SizeHalf) != -1 {
		t.Error("half truncation")
	}
	if truncate(0x1ffffffff, isa.SizeWord) != -1 {
		t.Error("word truncation")
	}
	if truncate(12345, isa.SizeDouble) != 12345 {
		t.Error("double truncation")
	}
}
