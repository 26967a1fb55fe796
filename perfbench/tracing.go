package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary: its name, start and end
// (nanoseconds since the tracer's epoch), the span that caused it, and
// the request it belongs to. Spans of one request share Req; spans
// outside any request have Req 0.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the workloads call it
// unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span at the given time and returns its ID (IDs start
// at 1; 0 means "no span").
func (t *tracer) open(name string, parent int32, req int64, start time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds()})
	return id
}

// close ends span id at the given time.
func (t *tracer) close(id int32, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// begin opens a span now.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	return t.open(name, parent, req, time.Now())
}

// end closes a span now.
func (t *tracer) end(id int32) { t.close(id, time.Now()) }

// snapshot copies the finished spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children may overlap one
// another (parallel work), so their intervals are merged first.
func selfTimes(spans []span) map[int32]time.Duration {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		lo, hi := int64(-1), int64(-1)
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// within returns the IDs of every span under a span named ancestor,
// those spans included. A span's parent always opens before it, so
// one pass in ID order sees each parent first.
func within(spans []span, ancestor string) map[int32]bool {
	in := map[int32]bool{}
	for _, s := range spans {
		if s.Name == ancestor || in[s.Parent] {
			in[s.ID] = true
		}
	}
	return in
}

// spansNamed returns the durations in milliseconds (self times when
// self is set) of every span with the given name, restricted to the
// IDs in set when set is non-nil.
func spansNamed(spans []span, self map[int32]time.Duration, name string, set map[int32]bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != name || (set != nil && !set[s.ID]) {
			continue
		}
		d := s.dur()
		if self != nil {
			d = self[s.ID]
		}
		out = append(out, ms(d))
	}
	return out
}

// spanFile is the JSON document a traced run writes when it ends.
type spanFile struct {
	Host     hostInfo           `json:"host"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfMS   map[string]float64 `json:"self_ms_by_name"`
	Spans    []span             `json:"spans"`
}

// write stores every span plus the total self time per span name.
func (t *tracer) write(path string, host hostInfo, workload string, seed int64) error {
	spans := t.snapshot()
	self := selfTimes(spans)
	byName := map[string]float64{}
	for _, s := range spans {
		byName[s.Name] += ms(self[s.ID])
	}
	data, err := json.Marshal(spanFile{Host: host, Workload: workload, Seed: seed, SelfMS: byName, Spans: spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
