package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Event is one Chrome trace-event (the JSON format Perfetto and
// chrome://tracing both load). Timestamps are in microseconds; we map
// one simulated cycle to one microsecond.
type Event struct {
	Name string         `json:"name,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  *uint64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the object form of the trace-event format.
type traceFile struct {
	TraceEvents []Event `json:"traceEvents"`
	DisplayUnit string  `json:"displayTimeUnit,omitempty"`
}

// SpanEvent is one stream command's lifetime: the cycles the control
// core enqueued it, the dispatcher issued it and its engine completed
// it (Done is false while it is still active).
type SpanEvent struct {
	ID        int
	Label     string
	Enqueued  uint64
	Issued    uint64
	Completed uint64
	Done      bool
}

// Lifetimes records a traced run's stream lifetimes in issue order. A
// registry built with a positive Options.Slices owns one (see
// Registry.Lifetimes) and the dispatcher feeds it; callers check for
// nil, which also spares untraced runs the command labels.
type Lifetimes struct {
	spans []SpanEvent
	index map[int]int // stream id -> position in spans
}

// Issued records a stream command's issue, with the cycle the control
// core enqueued it.
func (l *Lifetimes) Issued(id int, label string, enqueued, issued uint64) {
	l.index[id] = len(l.spans)
	l.spans = append(l.spans, SpanEvent{ID: id, Label: label, Enqueued: enqueued, Issued: issued})
}

// Completed records a stream command's completion.
func (l *Lifetimes) Completed(id int, cycle uint64) {
	if i, ok := l.index[id]; ok {
		l.spans[i].Completed, l.spans[i].Done = cycle, true
	}
}

// Spans returns the recorded lifetimes in issue order (nil for nil).
func (l *Lifetimes) Spans() []SpanEvent {
	if l == nil {
		return nil
	}
	return l.spans
}

// TraceInput is one unit's contribution to the trace: its stream
// lifetimes, its per-component stall slices, and the cycle the unit
// retired at (used to close still-open spans).
type TraceInput struct {
	Unit     int
	Spans    []SpanEvent
	Attrs    []*Attribution
	EndCycle uint64
}

// Thread-ID layout within a unit's process: components occupy low
// tids in registration order; each stream lifetime gets its own tid so
// B/E pairs trivially nest.
const streamTidBase = 1000

// WriteTrace renders the inputs as a Chrome trace-event JSON file:
// one process per unit, one thread per component carrying its stall
// slices as complete (X) events, and one thread per stream carrying
// its enqueue→issue→complete lifetime as nested B/E pairs. Idle runs
// are omitted — gaps on a component track are idle by conservation.
func WriteTrace(w io.Writer, inputs []TraceInput) error {
	f := traceFile{TraceEvents: []Event{}, DisplayUnit: "ms"}
	for _, in := range inputs {
		pid := in.Unit
		f.TraceEvents = append(f.TraceEvents, Event{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("unit %d", in.Unit)},
		})
		for tid, a := range in.Attrs {
			f.TraceEvents = append(f.TraceEvents, Event{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": a.Name()},
			})
			slices, truncated := a.Slices()
			for _, s := range slices {
				if s.Cause == CauseIdle {
					continue
				}
				dur := s.End - s.Start
				f.TraceEvents = append(f.TraceEvents, Event{
					Name: s.Cause.String(), Ph: "X", Ts: s.Start, Dur: &dur,
					Pid: pid, Tid: tid, Cat: "stall",
				})
			}
			if truncated {
				f.TraceEvents = append(f.TraceEvents, Event{
					Name: "slice-cap-reached", Ph: "M", Pid: pid, Tid: tid,
					Args: map[string]any{"component": a.Name()},
				})
			}
		}
		for i, s := range in.Spans {
			tid := streamTidBase + i
			f.TraceEvents = append(f.TraceEvents, Event{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("stream #%d", s.ID)},
			})
			end := in.EndCycle
			if s.Done {
				end = s.Completed
			}
			// Outer span: whole lifetime from enqueue. Inner span:
			// issued→completed (the cycles the stream held an engine).
			f.TraceEvents = append(f.TraceEvents,
				Event{Name: s.Label, Ph: "B", Ts: s.Enqueued, Pid: pid, Tid: tid, Cat: "stream"},
				Event{Name: "active", Ph: "B", Ts: s.Issued, Pid: pid, Tid: tid, Cat: "stream"},
				Event{Ph: "E", Ts: end, Pid: pid, Tid: tid},
				Event{Ph: "E", Ts: end, Pid: pid, Tid: tid},
			)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// Gantt renders one unit's trace as a text timeline in the style of the
// paper's Figures 4(b) and 6, one column per bucket of cycles: an
// activity lane per attribution, in registration order, with '#' on
// every column a Busy slice covers, then a bar per stream lifetime
// ('.' enqueued, '=' issued and active, '>' completed). A lane whose
// slices reached the cap is flagged slice-cap-reached, as in
// WriteTrace; its later cycles are blank. Widths below 20 are raised
// to 20.
func Gantt(in TraceInput, width int) string {
	var last uint64
	seen := false
	see := func(cycle uint64) { last, seen = max(last, cycle), true }
	for _, s := range in.Spans {
		see(s.Issued)
		if s.Done {
			see(s.Completed)
		}
	}
	for _, a := range in.Attrs {
		slices, _ := a.Slices()
		for _, s := range slices {
			if s.Cause == Busy {
				see(s.End - 1)
			}
		}
	}
	if !seen {
		return "(no trace recorded)\n"
	}
	width = max(width, 20)
	span := last + 1
	perCol := (span + uint64(width) - 1) / uint64(width)
	col := func(cycle uint64) int { return int(cycle / perCol) }

	const nameW = 10 // wider than every attribution name
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %d cycles, %d cycles/column\n\n", span, perCol)
	for _, a := range in.Attrs {
		row := []byte(strings.Repeat(" ", width))
		slices, truncated := a.Slices()
		for _, s := range slices {
			if s.Cause != Busy {
				continue
			}
			for c := col(s.Start); c <= col(s.End-1); c++ {
				row[c] = '#'
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|", nameW, a.Name(), row)
		if truncated {
			b.WriteString(" slice-cap-reached")
		}
		b.WriteByte('\n')
	}

	if len(in.Spans) > 0 {
		fmt.Fprintf(&b, "\nstreams (first %d):\n", len(in.Spans))
	}
	for _, s := range in.Spans {
		row := []byte(strings.Repeat(" ", width))
		end := last
		if s.Done {
			end = s.Completed
		}
		for c := s.Enqueued; c <= end && col(c) < width; c += perCol {
			if c < s.Issued {
				row[col(c)] = '.'
			} else {
				row[col(c)] = '='
			}
		}
		if s.Done && col(s.Completed) < width {
			row[col(s.Completed)] = '>'
		}
		fmt.Fprintf(&b, "%-*s |%s| %s\n", nameW, fmt.Sprintf("#%d", s.ID), row, s.Label)
	}
	return b.String()
}

// ValidateTrace checks data against the trace-event contract the
// export promises: well-formed JSON in object form, a known phase on
// every event, names on B/X/M events, durations on X events,
// non-decreasing timestamps per (pid, tid) track, and B/E pairs that
// match up (every E closes a B, every B is closed).
func ValidateTrace(data []byte) error {
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("trace JSON: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return fmt.Errorf("trace has no events")
	}
	type track struct{ pid, tid int }
	lastTs := map[track]uint64{}
	open := map[track]int{}
	for i, e := range f.TraceEvents {
		tr := track{e.Pid, e.Tid}
		switch e.Ph {
		case "M":
			if e.Name == "" {
				return fmt.Errorf("event %d: metadata without name", i)
			}
			continue
		case "B":
			if e.Name == "" {
				return fmt.Errorf("event %d: B without name", i)
			}
			open[tr]++
		case "E":
			if open[tr] == 0 {
				return fmt.Errorf("event %d: E with no open B on pid %d tid %d", i, e.Pid, e.Tid)
			}
			open[tr]--
		case "X":
			if e.Name == "" {
				return fmt.Errorf("event %d: X without name", i)
			}
			if e.Dur == nil {
				return fmt.Errorf("event %d: X without dur", i)
			}
		default:
			return fmt.Errorf("event %d: unknown phase %q", i, e.Ph)
		}
		if prev, ok := lastTs[tr]; ok && e.Ts < prev {
			return fmt.Errorf("event %d: ts %d < %d on pid %d tid %d", i, e.Ts, prev, e.Pid, e.Tid)
		}
		lastTs[tr] = e.Ts
	}
	for tr, n := range open {
		if n != 0 {
			return fmt.Errorf("pid %d tid %d: %d unclosed B events", tr.pid, tr.tid, n)
		}
	}
	return nil
}
