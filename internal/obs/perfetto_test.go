package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleInputs() []TraceInput {
	r := New(0, Options{Slices: 16})
	a := r.Attribution("mse")
	a.Account(Busy, 0, 10)
	a.Account(DRAMBW, 10, 30)
	a.Account(CauseIdle, 30, 40)
	return []TraceInput{{
		Unit:  0,
		Attrs: r.Attributions(),
		Spans: []SpanEvent{
			{ID: 0, Label: "SD_Mem_Port(...)", Enqueued: 0, Issued: 2, Completed: 30, Done: true},
			{ID: 1, Label: "SD_Port_Mem(...)", Enqueued: 1, Issued: 5}, // never completed
		},
		EndCycle: 40,
	}}
}

func TestWriteTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, sampleInputs()); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("self-validation failed: %v\n%s", err, buf.String())
	}
	// Idle runs are omitted; busy and dram-bw slices are present.
	s := buf.String()
	for _, want := range []string{`"busy"`, `"dram-bw"`, `"stream #1"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("trace missing %s:\n%s", want, s)
		}
	}
	if bytes.Contains(buf.Bytes(), []byte(`"idle"`)) {
		t.Errorf("idle slice leaked into trace:\n%s", s)
	}
}

func TestWriteTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteTrace(&a, sampleInputs()); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&b, sampleInputs()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("trace output not deterministic")
	}
}

func TestValidateTraceRejects(t *testing.T) {
	mk := func(events []Event) []byte {
		b, err := json.Marshal(traceFile{TraceEvents: events})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dur := uint64(5)
	cases := []struct {
		name   string
		events []Event
	}{
		{"empty", nil},
		{"unknown phase", []Event{{Name: "x", Ph: "Q"}}},
		{"B without name", []Event{{Ph: "B"}, {Ph: "E"}}},
		{"E without B", []Event{{Ph: "E"}}},
		{"unclosed B", []Event{{Name: "x", Ph: "B"}}},
		{"X without dur", []Event{{Name: "x", Ph: "X"}}},
		{"ts regression", []Event{
			{Name: "a", Ph: "X", Ts: 10, Dur: &dur},
			{Name: "b", Ph: "X", Ts: 3, Dur: &dur},
		}},
	}
	for _, c := range cases {
		if err := ValidateTrace(mk(c.events)); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
	if err := ValidateTrace([]byte("not json")); err == nil {
		t.Error("malformed JSON validated")
	}
	ok := []Event{
		{Name: "t", Ph: "M"},
		{Name: "a", Ph: "B", Ts: 1},
		{Name: "b", Ph: "X", Ts: 2, Dur: &dur},
		{Ph: "E", Ts: 9},
	}
	if err := ValidateTrace(mk(ok)); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

// ganttInput is a one-unit trace input over the given registry and
// stream lifetimes.
func ganttInput(r *Registry, spans ...SpanEvent) TraceInput {
	return TraceInput{Attrs: r.Attributions(), Spans: spans}
}

// ganttRow returns the rendered row named name, "" when absent.
func ganttRow(gantt, name string) string {
	for _, row := range strings.Split(gantt, "\n") {
		if strings.HasPrefix(row, name+" ") {
			return row
		}
	}
	return ""
}

// TestGanttCycleZeroActivity: a trace whose every event lands on cycle
// 0 must still render — "last cycle 0" is not "nothing recorded".
func TestGanttCycleZeroActivity(t *testing.T) {
	r := New(0, Options{Slices: 16})
	r.Attribution("core").Account(Busy, 0, 1)
	out := Gantt(ganttInput(r), 40)
	if strings.Contains(out, "no trace") {
		t.Fatalf("cycle-0 activity rendered as empty:\n%s", out)
	}
	if !strings.Contains(ganttRow(out, "core"), "#") {
		t.Errorf("lane missing its mark:\n%s", out)
	}

	// Same for a span issued and completed at cycle 0.
	span := SpanEvent{ID: 1, Label: "SD_Const_Port(...)", Done: true}
	if out := Gantt(ganttInput(New(0, Options{Slices: 16}), span), 40); strings.Contains(out, "no trace") {
		t.Fatalf("cycle-0 span rendered as empty:\n%s", out)
	}

	// A trace with nothing recorded, or with no Busy cycle and no
	// stream, still reports that.
	if out := Gantt(TraceInput{}, 40); out != "(no trace recorded)\n" {
		t.Errorf("empty input rendered a timeline:\n%s", out)
	}
	idle := New(0, Options{Slices: 16})
	idle.Attribution("core").Account(CauseIdle, 0, 50)
	if out := Gantt(ganttInput(idle), 40); out != "(no trace recorded)\n" {
		t.Errorf("idle-only input rendered a timeline:\n%s", out)
	}
}

// TestGanttRendering checks marker placement: lanes in registration
// order with '#' on Busy columns only, and a stream bar with '.' while
// enqueued, '=' while active and '>' at completion.
func TestGanttRendering(t *testing.T) {
	r := New(0, Options{Slices: 16})
	core, cgra := r.Attribution("core"), r.Attribution("cgra")
	core.Account(Busy, 0, 40)
	core.Account(PortFull, 40, 91)
	cgra.Account(CauseIdle, 0, 90)
	cgra.Account(Busy, 90, 91)
	span := SpanEvent{ID: 1, Label: "SD_Mem_Port(...)", Enqueued: 0, Issued: 2, Completed: 80, Done: true}
	out := Gantt(ganttInput(r, span), 40)
	// 91 cycles over 40 columns: 3 cycles per column.
	if !strings.HasPrefix(out, "timeline: 91 cycles, 3 cycles/column\n\n") {
		t.Errorf("header:\n%s", out)
	}
	pad := func(s string) string { return s + strings.Repeat(" ", 40-len(s)) }
	want := []string{
		"core       |" + pad(strings.Repeat("#", 14)) + "|",
		"cgra       |" + pad(strings.Repeat(" ", 30)+"#") + "|",
		"",
		"streams (first 1):",
		"#1         |" + pad("."+strings.Repeat("=", 25)+">") + "| SD_Mem_Port(...)",
	}
	if got := strings.Split(out, "\n")[2:7]; strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("rows:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// Tiny widths are clamped to 20 columns rather than crashing.
	if row := ganttRow(Gantt(ganttInput(r, span), 1), "core"); len(row) != len("core       |")+20+1 {
		t.Errorf("narrow Gantt row %q not 20 columns wide", row)
	}
}

// TestGanttBucketScaling: a long trace buckets many cycles per column.
func TestGanttBucketScaling(t *testing.T) {
	r := New(0, Options{Slices: 16})
	r.Attribution("x").Account(Busy, 999_999, 1_000_000)
	out := Gantt(ganttInput(r), 50)
	if !strings.HasPrefix(out, "timeline: 1000000 cycles, 20000 cycles/column\n") {
		t.Errorf("header:\n%s", out)
	}
	if row := ganttRow(out, "x"); !strings.HasSuffix(row, "#|") || strings.Count(row, "#") != 1 {
		t.Errorf("last-cycle mark not in the last column: %q", row)
	}
}

// TestGanttSliceCrossesColumns: a Busy slice spanning a column boundary
// marks every column it covers, and nothing beyond.
func TestGanttSliceCrossesColumns(t *testing.T) {
	r := New(0, Options{Slices: 16})
	a := r.Attribution("mse")
	a.Account(CauseIdle, 0, 8)
	a.Account(Busy, 8, 12) // columns 0 and 1 at 10 cycles per column
	a.Account(CauseIdle, 12, 199)
	a.Account(Busy, 199, 200)
	out := Gantt(ganttInput(r), 20)
	if want := "mse        |##" + strings.Repeat(" ", 17) + "#|"; ganttRow(out, "mse") != want {
		t.Errorf("row %q, want %q", ganttRow(out, "mse"), want)
	}
}

// TestGanttSliceCap: a lane whose slices reached the cap is flagged, as
// the Perfetto export's slice-cap-reached event does; others are not.
func TestGanttSliceCap(t *testing.T) {
	r := New(0, Options{Slices: 2})
	capped, whole := r.Attribution("capped"), r.Attribution("whole")
	for i := uint64(0); i < 10; i++ {
		capped.Account(Cause(i%2), i, i+1) // alternates every cycle
	}
	whole.Account(Busy, 0, 10)
	out := Gantt(ganttInput(r), 20)
	if row := ganttRow(out, "capped"); !strings.HasSuffix(row, "| slice-cap-reached") {
		t.Errorf("capped lane not flagged: %q", row)
	}
	if row := ganttRow(out, "whole"); strings.Contains(row, "slice-cap-reached") {
		t.Errorf("uncapped lane flagged: %q", row)
	}
}
