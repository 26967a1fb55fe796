package main

// The -stream mode: benchmark the streaming trace pipeline end to end.
// A fixed-seed trace flows out of the stochastic walker in bounded
// chunks — produced on the walker's own goroutine, never materialized —
// straight into Sim.RunStream, and the run fails unless a second replay
// of the same seed at another chunk size is bit-identical to it.
// -streammin gates the throughput (Mops/s) and -streammaxmb the HeapSys
// growth; -json writes BENCH_stream.json with the host it ran on.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	ccc "repro"
	"repro/internal/cliio"
	"repro/internal/simcheck"
)

// streamCheckChunk is the chunk size of the differential replay: a
// prime, so its seams fall away from the default chunking's.
const streamCheckChunk = 997

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
	// HeapSysMB / HeapGrowthMB bound the streamed run's peak footprint:
	// HeapSys is monotonic within the process, so its growth over the
	// replays is an upper bound on what the pipeline held live.
	HeapSysMB    int64 `json:"heap_sys_mb"`
	HeapGrowthMB int64 `json:"heap_growth_mb"`
	// SeqIdentical records the always-on differential gate: a second
	// sequential replay of the same seed, cut into streamCheckChunk-event
	// chunks, against the timed one.
	SeqIdentical  bool `json:"seq_identical"`
	OracleChecked bool `json:"oracle_checked"`
	OracleOK      bool `json:"oracle_ok"`
	// The host the throughput was measured on.
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// buildCommit returns the VCS revision stamped into the binary ("-dirty"
// appended for a modified tree), or "unknown" when the build carries
// none — `go run` and test binaries do not stamp it.
func buildCommit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
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

	replay := func(chunkEvents int) (ccc.Result, error) {
		sim, err := c.SimFor(p, cfg)
		if err != nil {
			return ccc.Result{}, err
		}
		st, err := c.StreamTraceOps(sr.ops, chunkEvents)
		if err != nil {
			return ccc.Result{}, err
		}
		return sim.RunStream(st)
	}

	before := ccc.MemSnapshot()
	start := time.Now()
	res, err := replay(0)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	// Differential gate, always on: the same seed replayed at another
	// chunk size must agree in every counter.
	seq, err := replay(streamCheckChunk)
	if err != nil {
		return err
	}
	after := ccc.MemSnapshot()
	seqIdentical := res == seq

	oracleOK := true
	if sr.check {
		im, err := c.Image(p.CacheScheme)
		if err != nil {
			return err
		}
		var rom *ccc.Image
		if p.ROMScheme != "" {
			if rom, err = c.Image(p.ROMScheme); err != nil {
				return err
			}
		}
		st, err := c.StreamTraceOps(sr.ops, 0)
		if err != nil {
			return err
		}
		oracle, oerr := simcheck.ExpectedStream(p.Org, cfg, im, rom, c.Prog, st)
		switch {
		case errors.Is(oerr, simcheck.ErrUnsupported):
			w.Printf("stream oracle: skipped (%v)\n", oerr)
		case oerr != nil:
			return oerr
		default:
			for _, m := range simcheck.Diff(res, oracle) {
				oracleOK = false
				w.Printf("stream oracle disagrees on %s: simulator %d, oracle %d\n",
					m.Field, m.Got, m.Want)
			}
		}
	}

	mops := float64(res.Ops) / 1e6 / wall.Seconds()
	growthMB := (int64(after.HeapSys) - int64(before.HeapSys)) >> 20
	w.Printf("stream benchmark %s/%s: %d ops (%d events) in %.2fs (GOMAXPROCS %d)\n",
		sr.bench, p.Name, res.Ops, res.BlockFetches, wall.Seconds(), runtime.GOMAXPROCS(0))
	w.Printf("  throughput %.1f Mops/s, cycles %d, IPC %.4f\n", mops, res.Cycles, res.IPC())
	w.Printf("  heap sys %d MB (grew %d MB during the streamed replays)\n",
		int64(after.HeapSys)>>20, growthMB)
	if seqIdentical {
		w.Printf("  %d-event chunks == default chunks: every counter identical\n", streamCheckChunk)
	} else {
		w.Printf("  default chunks: %+v\n  %d-event chunks: %+v\n", res, streamCheckChunk, seq)
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
			HeapSysMB:     int64(after.HeapSys) >> 20,
			HeapGrowthMB:  growthMB,
			SeqIdentical:  seqIdentical,
			OracleChecked: sr.check,
			OracleOK:      oracleOK,
			GOMAXPROCS:    runtime.GOMAXPROCS(0),
			NumCPU:        runtime.NumCPU(),
			GoVersion:     runtime.Version(),
			Commit:        buildCommit(),
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

	if !seqIdentical {
		return errors.Join(
			fmt.Errorf("streamed result depends on the chunk size"),
			w.Err())
	}
	if !oracleOK {
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
