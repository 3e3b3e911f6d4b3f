package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans stay in memory until the run ends.
type span struct {
	name       string
	parent     int    // index of the parent span, -1 for a top-level span
	op         int64  // operation id shared by a top-level span and its children
	tid        int    // client (goroutine) that made the call
	reqID      string // X-Request-Id of a service request, "" otherwise
	start, end time.Duration
	closed     bool
}

func (s span) dur() time.Duration { return s.end - s.start }

// layer is the span name's first dot-separated element: the internal/
// module the call went into ("core" for "core.run"), or "bench" for the
// benchmark's own top-level spans.
func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// tracer records spans. A nil *tracer records nothing, so the untraced
// path runs the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
	gaps  map[int][][2]time.Duration // per client: intervals run untraced on purpose
}

func newTracer() *tracer { return &tracer{base: time.Now(), gaps: map[int][][2]time.Duration{}} }

// untraced records that client tid ran untraced on purpose from start
// until now; the tiling check does not count that time as uncovered.
func (t *tracer) untraced(tid int, start time.Time) {
	t.mu.Lock()
	t.gaps[tid] = append(t.gaps[tid], [2]time.Duration{start.Sub(t.base), time.Since(t.base)})
	t.mu.Unlock()
}

// root opens a top-level span for operation op on client tid; reqID is
// the X-Request-Id of a service request, "" otherwise.
func (t *tracer) root(name string, op int64, tid int, reqID string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: -1, op: op, tid: tid, reqID: reqID, start: time.Since(t.base)})
	return len(t.spans) - 1
}

// child opens a span under parent; it inherits the parent's operation
// and client.
func (t *tracer) child(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{name: name, parent: parent, op: p.op, tid: p.tid, start: time.Since(t.base)})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.base)
	t.mu.Lock()
	t.spans[i].end = now
	t.spans[i].closed = true
	t.mu.Unlock()
}

// traceStats is the trace's own accounting: self time per layer, and
// the checks that the spans nest and tile the traced wall time.
type traceStats struct {
	spans     int
	ops       int                      // top-level spans
	selfBy    map[string]time.Duration // layer -> summed self time
	covered   time.Duration            // summed top-level span time
	wall      time.Duration            // summed per-client traced wall time (first start to last end, untraced gaps excluded)
	uncovered float64                  // 1 - covered/wall
}

// tilingTolerance bounds how much of each client's traced wall time may
// fall outside its top-level spans: only the loop's own bookkeeping
// between operations runs there.
const tilingTolerance = 0.02

// analyze computes self times and checks the trace: every span is
// closed, every child lies inside its parent, no child's self time
// exceeds its parent's span, top-level spans of one client do not
// overlap, and they cover the client's wall time within
// tilingTolerance. A layer's self time is its span's duration minus the
// part its children cover.
func (t *tracer) analyze() (traceStats, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := traceStats{spans: len(t.spans), selfBy: map[string]time.Duration{}}
	childTime := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if !s.closed {
			return st, fmt.Errorf("trace: span %s never closed", s.name)
		}
		if s.parent < 0 {
			continue
		}
		p := t.spans[s.parent]
		if s.start < p.start || s.end > p.end {
			return st, fmt.Errorf("trace: span %s [%v,%v] outside its parent %s [%v,%v]",
				s.name, s.start, s.end, p.name, p.start, p.end)
		}
		childTime[s.parent] += s.dur()
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.dur() - childTime[i]
		if self[i] < 0 {
			return st, fmt.Errorf("trace: children of %s cover %v of its %v", s.name, childTime[i], s.dur())
		}
		if s.parent >= 0 && self[i] > t.spans[s.parent].dur() {
			return st, fmt.Errorf("trace: self time of %s exceeds its parent's span", s.name)
		}
		st.selfBy[s.layer()] += self[i]
	}
	byTid := map[int][]span{}
	for _, s := range t.spans {
		if s.parent < 0 {
			byTid[s.tid] = append(byTid[s.tid], s)
			st.ops++
		}
	}
	for tid, roots := range byTid {
		sort.Slice(roots, func(i, j int) bool { return roots[i].start < roots[j].start })
		var covered time.Duration
		for i, r := range roots {
			if i > 0 && r.start < roots[i-1].end {
				return st, fmt.Errorf("trace: client %d: top-level spans %s and %s overlap", tid, roots[i-1].name, r.name)
			}
			covered += r.dur()
		}
		first, last := roots[0].start, roots[len(roots)-1].end
		wall := last - first
		for _, g := range t.gaps[tid] {
			if g[0] >= first && g[1] <= last {
				wall -= g[1] - g[0]
			}
		}
		st.covered += covered
		st.wall += wall
	}
	if st.wall > 0 {
		st.uncovered = 1 - float64(st.covered)/float64(st.wall)
	}
	if st.uncovered > tilingTolerance {
		return st, fmt.Errorf("trace: top-level spans cover %v of %v traced wall time (%.2f%% uncovered, tolerance %.0f%%)",
			st.covered, st.wall, 100*st.uncovered, 100*tilingTolerance)
	}
	return st, nil
}

// chromeEvent is one complete event ("ph":"X") of the Chrome
// trace-event format, loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans to path as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"span": i, "parent": s.parent, "op": s.op}
		if s.reqID != "" {
			args["req_id"] = s.reqID
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.layer(), Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.tid, Args: args,
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
