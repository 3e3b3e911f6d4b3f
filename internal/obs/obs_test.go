package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(3)
	r.Histogram("h", 8, 4).Observe(9)
	r.Attribution("a").Account(Busy, 0, 10)
	r.Stream(1, "SD_Mem_Port", 64)
	r.SetCycles(5)
	if got := r.Counter("c").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	if d := r.Dump(); len(d.Components) != 0 || d.Cycles != 0 {
		t.Errorf("nil registry dump non-empty: %+v", d)
	}
	if s, _ := r.Attribution("a").Slices(); s != nil {
		t.Errorf("nil attribution slices: %v", s)
	}
	if s := r.Lifetimes().Spans(); s != nil {
		t.Errorf("nil registry lifetimes: %v", s)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := New(0, Options{})
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter not idempotent")
	}
	if r.Histogram("x", 4, 4) != r.Histogram("x", 4, 4) {
		t.Error("Histogram not idempotent")
	}
	if r.Attribution("x") != r.Attribution("x") {
		t.Error("Attribution not idempotent")
	}
}

func TestAttributionConservationAndSlices(t *testing.T) {
	r := New(2, Options{Slices: 8})
	a := r.Attribution("mse")
	a.Account(Busy, 0, 5)
	a.Account(Busy, 5, 7) // merged into the same run
	a.Account(DRAMBW, 7, 207)
	a.Account(CauseIdle, 207, 300)
	if got := a.Elapsed(); got != 300 {
		t.Fatalf("elapsed = %d, want 300", got)
	}
	c := a.Causes()
	if c[Busy] != 7 || c[DRAMBW] != 200 || c[CauseIdle] != 93 {
		t.Fatalf("causes = %v", c)
	}
	slices, truncated := a.Slices()
	want := []Slice{
		{Busy, 0, 7},
		{DRAMBW, 7, 207},
		{CauseIdle, 207, 300},
	}
	if truncated || len(slices) != len(want) {
		t.Fatalf("slices = %v (truncated=%v)", slices, truncated)
	}
	for i, s := range slices {
		if s != want[i] {
			t.Errorf("slice %d = %v, want %v", i, s, want[i])
		}
	}

	r.SetCycles(300)
	d := Merge([]UnitDump{r.Dump()})
	if err := CheckConservation(d); err != nil {
		t.Errorf("conservation: %v", err)
	}
	// Break the invariant deliberately: an unaccounted cycle must trip it.
	r.SetCycles(301)
	if err := CheckConservation(Merge([]UnitDump{r.Dump()})); err == nil {
		t.Error("conservation check missed an unaccounted cycle")
	}
}

func TestAttributionSliceCap(t *testing.T) {
	r := New(0, Options{Slices: 2})
	a := r.Attribution("x")
	for i := uint64(0); i < 10; i++ {
		a.Account(Cause(i%2), i, i+1) // alternates every cycle
	}
	slices, truncated := a.Slices()
	if !truncated {
		t.Error("cap not reported as truncation")
	}
	if len(slices) > 2 {
		t.Errorf("cap exceeded: %d slices", len(slices))
	}
	if got := a.Elapsed(); got != 10 {
		t.Errorf("elapsed affected by cap: %d", got)
	}
}

// TestSpanLifecycle: a traced registry records stream lifetimes in
// issue order, and Reset clears them in place, so a holder of the
// recorder (the dispatcher) sees only the next run's streams.
func TestSpanLifecycle(t *testing.T) {
	if New(0, Options{}).Lifetimes() != nil {
		t.Fatal("untraced registry records lifetimes")
	}
	r := New(0, Options{Slices: 8})
	l := r.Lifetimes()
	l.Issued(1, "SD_Mem_Port", 2, 5)
	l.Issued(2, "SD_Barrier_All", 3, 7)
	l.Completed(1, 20)
	l.Completed(9, 21) // never issued: ignored
	spans := l.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans", len(spans))
	}
	if spans[0].Enqueued != 2 || spans[0].Issued != 5 || !spans[0].Done || spans[0].Completed != 20 {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[1].Done {
		t.Error("span 2 should be open")
	}

	r.Reset()
	if r.Lifetimes() != l || len(l.Spans()) != 0 {
		t.Fatalf("Reset did not clear the recorder in place: %v", l.Spans())
	}
	l.Issued(3, "SD_Port_Mem", 30, 31)
	l.Completed(1, 40) // the previous run's stream is gone
	if got := l.Spans(); len(got) != 1 || got[0].ID != 3 || got[0].Done {
		t.Errorf("after Reset: %+v", got)
	}
	if len(spans) != 2 || !spans[0].Done {
		t.Errorf("Reset clobbered the previous run's spans: %+v", spans)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New(0, Options{})
	h := r.Histogram("lat", 10, 3)
	for _, v := range []uint64{0, 9, 10, 25, 1000} {
		h.Observe(v)
	}
	d := r.Dump().Histograms[0]
	if d.Count != 5 || d.Sum != 1044 || d.Max != 1000 {
		t.Fatalf("histogram stats: %+v", d)
	}
	if d.Buckets[0] != 2 || d.Buckets[1] != 1 || d.Buckets[2] != 2 {
		t.Fatalf("histogram buckets: %v", d.Buckets)
	}
}

func TestMergeTotals(t *testing.T) {
	mk := func(unit int, busy, idle uint64) UnitDump {
		r := New(unit, Options{})
		a := r.Attribution("disp")
		a.Account(Busy, 0, busy)
		a.Account(CauseIdle, busy, busy+idle)
		r.Counter("issued").Add(busy)
		r.Stream(unit, "SD_Mem_Port", 128)
		r.SetCycles(busy + idle)
		return r.Dump()
	}
	d := Merge([]UnitDump{mk(0, 10, 5), mk(1, 20, 15)})
	if d.Total.Cycles != 35 {
		t.Errorf("total cycles = %d, want max(15,35)=35", d.Total.Cycles)
	}
	if len(d.Total.Components) != 1 || d.Total.Components[0].Causes["busy"] != 30 {
		t.Errorf("total components: %+v", d.Total.Components)
	}
	if d.Total.Counters["issued"] != 30 {
		t.Errorf("total counters: %v", d.Total.Counters)
	}
	if len(d.Total.Streams) != 2 {
		t.Errorf("total streams: %v", d.Total.Streams)
	}
	if err := CheckConservation(d); err != nil {
		t.Errorf("conservation: %v", err)
	}

	// Determinism: merging the same dumps twice is byte-identical.
	b1, err := d.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Merge([]UnitDump{mk(0, 10, 5), mk(1, 20, 15)}).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("merged dump not deterministic")
	}
}

func TestBandwidthTable(t *testing.T) {
	r := New(0, Options{})
	r.Attribution("mse").Account(Busy, 0, 100)
	r.Stream(0, "SD_Mem_Port", 800)
	r.Stream(1, "SD_Port_Port", 400)
	r.SetCycles(100)
	tbl := BandwidthTable(Merge([]UnitDump{r.Dump()}), 16)
	if !strings.Contains(tbl, "SD_Mem_Port") || !strings.Contains(tbl, "SD_Port_Port") {
		t.Fatalf("table missing kinds:\n%s", tbl)
	}
	// 800 bytes / 100 cycles = 8 B/cycle = 50% of the 16 B/cycle DRAM
	// line rate. Stream bytes include cache hits, so the share is not
	// labelled a peak or a utilization.
	if !strings.Contains(tbl, "50.0%") || !strings.Contains(tbl, "of the 16 B/cycle DRAM line rate") {
		t.Errorf("share of the DRAM line rate not reported:\n%s", tbl)
	}
	if strings.Contains(tbl, "peak") {
		t.Errorf("table still calls the line rate a peak:\n%s", tbl)
	}
	// Recurrence streams do not count toward DRAM bandwidth.
	if !strings.Contains(tbl, "memory streams: 800 bytes") {
		t.Errorf("memory-stream total wrong:\n%s", tbl)
	}
}

func TestCauseNames(t *testing.T) {
	for i := Cause(0); i < NumCauses; i++ {
		c, ok := CauseFromName(i.String())
		if !ok || c != i {
			t.Errorf("round trip failed for %v", i)
		}
	}
	if _, ok := CauseFromName("nope"); ok {
		t.Error("unknown name resolved")
	}
}
