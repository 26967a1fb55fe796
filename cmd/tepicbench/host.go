package main

import (
	"runtime"
	"runtime/debug"
)

// hostInfo is the host a report was measured on. Every -json report
// embeds it, so its fields appear as top-level keys and no number is
// recorded without the machine it came from.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// currentHost describes the running process's host.
func currentHost() hostInfo {
	return hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     buildCommit(),
	}
}

// buildCommit returns the VCS revision stamped into the binary ("-dirty"
// appended for a modified tree), or "unknown" when the build carries
// none — `go run` without -buildvcs=true and test binaries do not stamp
// it.
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
