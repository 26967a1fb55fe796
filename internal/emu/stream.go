package emu

import (
	"math"
	"runtime"

	"repro/internal/sched"
	"repro/internal/trace"
)

// StochasticStream is the streaming face of StochasticTrace: the same
// seeded CFG walk, but the events arrive in chunks that the stream's
// Next fills on the consumer's goroutine instead of one materialized
// []Event — the walker's working set is the chunks the consumer holds,
// independent of maxBlocks. The event sequence is bit-identical to
// StochasticTrace(sp, seed, maxBlocks, phases): same PRNG consumption
// order, same final-event trace.End patch. chunkEvents <= 0 selects
// trace.DefaultChunkEvents.
func StochasticStream(sp *sched.Program, seed int64, maxBlocks, phases, chunkEvents int) (trace.Stream, error) {
	return walkStream(sp, seed, int64(maxBlocks), math.MaxInt64, phases, chunkEvents)
}

// StochasticStreamOps is StochasticStream bounded by dynamic operation
// count instead of block executions: the walk stops at the first block
// boundary where at least maxOps operations have executed. This is the
// long-horizon generator — "simulate 100M ops" — where the block count
// is not known up front. The final event's Next is trace.End.
func StochasticStreamOps(sp *sched.Program, seed int64, maxOps int64, phases, chunkEvents int) (trace.Stream, error) {
	return walkStream(sp, seed, math.MaxInt64, maxOps, phases, chunkEvents)
}

// walkStream is the body of both stochastic streams: the walk stops
// once it has stepped maxBlocks blocks or executed at least maxOps
// operations.
func walkStream(sp *sched.Program, seed, maxBlocks, maxOps int64, phases, chunkEvents int) (trace.Stream, error) {
	w, err := newWalker(sp, seed, phases)
	if err != nil {
		return nil, err
	}
	// The walk runs one event ahead of the chunk, so the final event can
	// be patched to trace.End — it has no successor within the trace
	// window — before it is delivered.
	var pending trace.Event
	var pOps, pMOPs, blocks, ops int64
	have := false // pending holds an event not yet delivered
	advance := func() {
		have = blocks < maxBlocks && ops < maxOps
		if have {
			pending, pOps, pMOPs = w.step()
			blocks++
			ops += pOps
		}
	}
	advance()
	return trace.NewPullStream(sp.Name, chunkEvents, func(c *trace.Chunk) error {
		for have && len(c.Events) < cap(c.Events) {
			ev, evOps, evMOPs := pending, pOps, pMOPs
			advance()
			if !have {
				ev.SetNext(trace.End)
			}
			c.Events = append(c.Events, ev)
			c.Ops += evOps
			c.MOPs += evMOPs
		}
		return nil
	}), nil
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
