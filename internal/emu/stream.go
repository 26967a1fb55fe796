package emu

import (
	"runtime"

	"repro/internal/sched"
	"repro/internal/trace"
)

// StochasticStream is the streaming face of StochasticTrace: the same
// seeded CFG walk, but events flow to the consumer through a bounded
// producer/consumer chunk stream instead of materializing a []Event —
// the walker's working set is a handful of recycled chunks, independent
// of maxBlocks. The event sequence is bit-identical to
// StochasticTrace(sp, seed, maxBlocks, phases): same PRNG consumption
// order, same final-event trace.End patch. chunkEvents <= 0 selects
// trace.DefaultChunkEvents. The consumer must drain the stream or
// Close it to release the producer goroutine.
//
//tepic:pool
func StochasticStream(sp *sched.Program, seed int64, maxBlocks, phases, chunkEvents int) (trace.Stream, error) {
	w, err := newWalker(sp, seed, phases)
	if err != nil {
		return nil, err
	}
	s, p := trace.NewChanStream(sp.Name, chunkEvents, 0)
	go func() {
		for i := 0; i < maxBlocks; i++ {
			ev, ops, mops := w.step()
			if i == maxBlocks-1 {
				// The final event has no successor within the trace
				// window, exactly as StochasticTrace patches it.
				ev.SetNext(trace.End)
			}
			if !p.Append(ev, ops, mops) {
				break
			}
		}
		p.Close(nil)
	}()
	return s, nil
}

// StochasticStreamOps is StochasticStream bounded by dynamic operation
// count instead of block executions: the walk stops at the first block
// boundary where at least maxOps operations have executed. This is the
// long-horizon generator — "simulate 100M ops" — where the block count
// is not known up front. The final event's Next is trace.End.
//
//tepic:pool
func StochasticStreamOps(sp *sched.Program, seed int64, maxOps int64, phases, chunkEvents int) (trace.Stream, error) {
	w, err := newWalker(sp, seed, phases)
	if err != nil {
		return nil, err
	}
	s, p := trace.NewChanStream(sp.Name, chunkEvents, 0)
	go func() {
		// One event of lookahead so the terminal event can be patched to
		// trace.End before it is handed to the consumer.
		var pending trace.Event
		var pOps, pMOPs int64
		have := false
		var total int64
		for total < maxOps {
			ev, ops, mops := w.step()
			if have && !p.Append(pending, pOps, pMOPs) {
				p.Close(nil)
				return
			}
			pending, pOps, pMOPs, have = ev, ops, mops, true
			total += ops
		}
		if have {
			pending.SetNext(trace.End)
			p.Append(pending, pOps, pMOPs)
		}
		p.Close(nil)
	}()
	return s, nil
}

// MemUsage is a point-in-time heap snapshot, used by the streaming
// long-horizon tests to assert that peak memory is bounded by the
// chunk working set rather than the trace length.
type MemUsage struct {
	HeapAlloc uint64 // live heap bytes after GC
	HeapSys   uint64 // heap bytes obtained from the OS
	Sys       uint64 // total bytes obtained from the OS
}

// MemSnapshot forces a garbage collection and returns the resulting
// heap usage.
func MemSnapshot() MemUsage {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemUsage{HeapAlloc: ms.HeapAlloc, HeapSys: ms.HeapSys, Sys: ms.Sys}
}
