package main

// The -stream mode: benchmark the streaming trace pipeline end to end.
// A fixed-seed trace flows out of the stochastic walker in bounded
// chunks — each filled when Sim.RunStream asks for it, on the same
// goroutine, never materialized — and the run fails unless a second
// replay of the same seed at another chunk size is bit-identical to it.
// The report gives the process CPU time of the timed replay next to its
// wall-clock throughput. -streammin gates the throughput (Mops/s) and
// -streammaxmb the HeapSys growth; -json writes BENCH_stream.json with
// the host it ran on.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	ccc "repro"
	"repro/internal/cliio"
	"repro/internal/core"
)

// streamRun parameterizes one -stream invocation.
type streamRun struct {
	bench     string
	pairing   string
	ops       int64
	check     bool
	jsonPath  string
	minMops   float64
	maxHeapMB int64
}

// streamReport is the machine-readable -stream summary (BENCH_stream.json).
type streamReport struct {
	Tool       string  `json:"tool"`
	Mode       string  `json:"mode"`
	Benchmark  string  `json:"benchmark"`
	Pairing    string  `json:"pairing"`
	Ops        int64   `json:"ops"`
	Events     int64   `json:"events"`
	Cycles     int64   `json:"cycles"`
	WallMS     float64 `json:"wall_ms"`
	MopsPerSec float64 `json:"mops_per_sec"`
	// CPUMS is the process CPU time, user and system over all threads,
	// of the timed replay. Unlike wall time it counts work done on other
	// cores and leaves out time the host took away.
	CPUMS float64 `json:"cpu_ms"`
	// HeapSysMB / HeapGrowthMB bound the streamed run's peak footprint:
	// HeapSys is monotonic within the process, so its growth over the
	// replays is an upper bound on what the pipeline held live.
	HeapSysMB    int64 `json:"heap_sys_mb"`
	HeapGrowthMB int64 `json:"heap_growth_mb"`
	// SeqIdentical records the always-on differential gate: a second
	// sequential replay of the same seed, cut into
	// core.StreamCheckChunk-event chunks, against the timed one.
	SeqIdentical  bool `json:"seq_identical"`
	OracleChecked bool `json:"oracle_checked"`
	OracleOK      bool `json:"oracle_ok"`
	hostInfo
}

// runStreamBench executes the -stream benchmark and its gates.
func runStreamBench(sr streamRun, w *cliio.Writer) error {
	c, err := ccc.CompileBenchmark(sr.bench)
	if err != nil {
		return err
	}
	p, ok := ccc.PairingByName(sr.pairing)
	if !ok {
		return fmt.Errorf("unknown pairing %q", sr.pairing)
	}
	cfg := ccc.DefaultConfig(p.Org)

	mkStream := func(chunkEvents int) (ccc.Stream, error) {
		return c.StreamTraceOps(sr.ops, chunkEvents)
	}

	before := ccc.MemSnapshot()
	cpu0, err := processCPU()
	if err != nil {
		return err
	}
	start := time.Now()
	sim, err := c.SimFor(p, cfg)
	if err != nil {
		return err
	}
	st, err := mkStream(0)
	if err != nil {
		return err
	}
	res, err := sim.RunStream(st)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	cpu1, err := processCPU()
	if err != nil {
		return err
	}
	cpuMS := float64(cpu1-cpu0) / float64(time.Millisecond)

	// Differential gate, always on: the same seed replayed at another
	// chunk size must agree in every counter; -check adds the oracle.
	sc, err := c.CheckStream(p, cfg, res, mkStream, sr.check)
	if err != nil {
		return err
	}
	after := ccc.MemSnapshot()
	if sc.Skipped != nil {
		w.Printf("stream oracle: skipped (%v)\n", sc.Skipped)
	}
	for _, m := range sc.Mismatches {
		w.Printf("stream oracle disagrees on %s: simulator %d, oracle %d\n",
			m.Field, m.Got, m.Want)
	}

	mops := float64(res.Ops) / 1e6 / wall.Seconds()
	growthMB := (int64(after.HeapSys) - int64(before.HeapSys)) >> 20
	w.Printf("stream benchmark %s/%s: %d ops (%d events) in %.2fs (GOMAXPROCS %d)\n",
		sr.bench, p.Name, res.Ops, res.BlockFetches, wall.Seconds(), runtime.GOMAXPROCS(0))
	w.Printf("  throughput %.1f Mops/s (process CPU %.0f ms), cycles %d, IPC %.4f\n",
		mops, cpuMS, res.Cycles, res.IPC())
	w.Printf("  heap sys %d MB (grew %d MB during the streamed replays)\n",
		int64(after.HeapSys)>>20, growthMB)
	if sc.Identical {
		w.Printf("  %d-event chunks == default chunks: every counter identical\n", core.StreamCheckChunk)
	} else {
		w.Printf("  default chunks: %+v\n  %d-event chunks: %+v\n", res, core.StreamCheckChunk, sc.Rechunked)
	}

	if sr.jsonPath != "" {
		rep := streamReport{
			Tool:          "tepicbench",
			Mode:          "stream",
			Benchmark:     sr.bench,
			Pairing:       p.Name,
			Ops:           res.Ops,
			Events:        res.BlockFetches,
			Cycles:        res.Cycles,
			WallMS:        float64(wall) / float64(time.Millisecond),
			MopsPerSec:    mops,
			CPUMS:         cpuMS,
			HeapSysMB:     int64(after.HeapSys) >> 20,
			HeapGrowthMB:  growthMB,
			SeqIdentical:  sc.Identical,
			OracleChecked: sr.check,
			OracleOK:      len(sc.Mismatches) == 0,
			hostInfo:      currentHost(),
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(sr.jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		w.Printf("benchmark report written to %s\n", sr.jsonPath)
	}

	if !sc.Identical {
		return errors.Join(
			fmt.Errorf("streamed result depends on the chunk size"),
			w.Err())
	}
	if len(sc.Mismatches) > 0 {
		return errors.Join(fmt.Errorf("streaming oracle found mismatches"), w.Err())
	}
	if sr.minMops > 0 && mops < sr.minMops {
		return errors.Join(
			fmt.Errorf("streaming throughput %.1f Mops/s below minimum %.1f", mops, sr.minMops),
			w.Err())
	}
	if sr.maxHeapMB > 0 && growthMB > sr.maxHeapMB {
		return errors.Join(
			fmt.Errorf("heap grew %d MB during the streamed run, above the %d MB bound",
				growthMB, sr.maxHeapMB),
			w.Err())
	}
	return w.Err()
}

// processCPU returns the CPU time the process has used so far, user and
// system, across all its threads.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
