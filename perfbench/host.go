package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostInfo is the machine and source a result was measured on.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is the VCS revision stamped into the build, or "unknown"
	// when the source was built outside a repository.
	Commit string `json:"commit"`
	// SourceDigest hashes every Go source and module file of the tree
	// the benchmark was built from, so results from an unversioned
	// checkout can still be matched to their code.
	SourceDigest string `json:"source_digest"`
}

func currentHost(root string) hostInfo {
	h := hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			h.Commit = rev
			if dirty {
				h.Commit += "+dirty"
			}
		}
	}
	h.SourceDigest = sourceDigest(root)
	return h
}

// sourceDigest hashes the path and content of every .go, go.mod and
// go.sum file under root, skipping hidden directories (the build
// directory among them). It returns "" when the tree cannot be read.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return ""
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return ""
		}
		rel, err := filepath.Rel(root, f)
		if err != nil {
			return ""
		}
		h.Write([]byte(filepath.ToSlash(rel) + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// heapSampler tracks the peak live heap: the bytes of heap objects the
// garbage collector found reachable, sampled every few milliseconds. It
// leaves out garbage awaiting collection, whose amount depends on when
// collections happen to run, so it repeats closely from run to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// stopMB stops sampling and returns the peak in MiB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// stealSample reads the machine-wide CPU time the hypervisor stole
// from /proc/stat. ok is false where that file is unavailable.
func stealSample() (steal, total int64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user, nice, system, idle, iowait, irq, softirq, steal; the guest
	// fields that may follow are already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealSince returns the share of machine CPU time stolen since the
// sample, in percent, or -1 when it cannot be read.
func stealSince(steal0, total0 int64, ok0 bool) float64 {
	steal1, total1, ok1 := stealSample()
	if !ok0 || !ok1 || total1 <= total0 {
		return -1
	}
	return 100 * float64(steal1-steal0) / float64(total1-total0)
}

// heapAllocs returns how many heap objects the process has allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
