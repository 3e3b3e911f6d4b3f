package main

import (
	"reflect"
	"testing"
	"time"
)

// TestFaultConflicts: a fault-profile run refuses every flag whose
// output it would drop, and names each one.
func TestFaultConflicts(t *testing.T) {
	for _, tc := range []struct {
		metrics, traceOut string
		progress          time.Duration
		trace             bool
		want              []string
	}{
		{want: nil},
		{metrics: "m.json", want: []string{"-metrics"}},
		{traceOut: "t.json", want: []string{"-trace-out"}},
		{progress: time.Second, want: []string{"-progress"}},
		{trace: true, want: []string{"-trace"}},
		{metrics: "m.json", traceOut: "t.json", progress: 2 * time.Second, trace: true,
			want: []string{"-metrics", "-trace-out", "-progress", "-trace"}},
	} {
		if got := faultConflicts(tc.metrics, tc.traceOut, tc.progress, tc.trace); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("faultConflicts(%q, %q, %v, %v) = %q, want %q", tc.metrics, tc.traceOut, tc.progress, tc.trace, got, tc.want)
		}
	}
}

// TestTraceConflicts: -trace refuses every observability flag, whose
// reports a run would print instead of the timeline, and names each
// one; without -trace nothing conflicts.
func TestTraceConflicts(t *testing.T) {
	for _, tc := range []struct {
		metrics, traceOut string
		progress          time.Duration
		trace             bool
		want              []string
	}{
		{trace: true, want: nil},
		{metrics: "m.json", traceOut: "t.json", progress: time.Second, want: nil},
		{metrics: "m.json", trace: true, want: []string{"-metrics"}},
		{traceOut: "t.json", trace: true, want: []string{"-trace-out"}},
		{progress: time.Second, trace: true, want: []string{"-progress"}},
		{metrics: "m.json", traceOut: "t.json", progress: 2 * time.Second, trace: true,
			want: []string{"-metrics", "-trace-out", "-progress"}},
	} {
		if got := traceConflicts(tc.metrics, tc.traceOut, tc.progress, tc.trace); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("traceConflicts(%q, %q, %v, %v) = %q, want %q", tc.metrics, tc.traceOut, tc.progress, tc.trace, got, tc.want)
		}
	}
}
