package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileMatchesInclusiveQuantiles(t *testing.T) {
	// statistics.quantiles([4, 1, 3, 2], n=4, method="inclusive") and
	// statistics.quantiles(range(1, 12), n=10, method="inclusive").
	xs := []float64{4, 1, 3, 2}
	q1, med, q3 := quartiles(xs)
	if q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 2.5 3.25", q1, med, q3)
	}
	if xs[0] != 4 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	var ys []float64
	for i := 1; i <= 11; i++ {
		ys = append(ys, float64(i))
	}
	if got := percentile(ys, 0.9); got != 10 {
		t.Errorf("p90 of 1..11 = %v, want 10", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
}

func TestBeyondAndGeomean(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if got := beyond(xs, 0.9); got != 10 {
		t.Errorf("samples beyond p90 of 1..100 = %d, want 10", got)
	}
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{1, 0}); !math.IsNaN(got) {
		t.Errorf("geomean with a zero = %v, want NaN", got)
	}
}

func TestTrimmedMean(t *testing.T) {
	// Ten samples, a tenth cut at each end: the mean of 2..9.
	xs := []float64{5, 1, 9, 2, 8, 3, 7, 4, 6, 1000}
	if got := trimmedMean(xs, 0.1); got != 5.5 {
		t.Errorf("trimmed mean = %v, want 5.5", got)
	}
	if xs[0] != 5 {
		t.Errorf("trimmedMean sorted its input in place: %v", xs)
	}
	if got := trimmedMean([]float64{3, 5}, 0.1); got != 4 {
		t.Errorf("trimmed mean of two = %v, want 4 (nothing cut)", got)
	}
	if got := trimmedMean(nil, 0.1); !math.IsNaN(got) {
		t.Errorf("trimmed mean of nothing = %v, want NaN", got)
	}
}

func TestGroupTiming(t *testing.T) {
	// The geometric mean of each group's median, sqrt(2 x 20), and of
	// each group's first quartile, sqrt(1.5 x 15).
	m := groupTiming("p50_ms", "ms", [][]float64{{3, 1, 2}, {10, 30, 20}}, 0.5)
	if math.Abs(m.value-math.Sqrt(40)) > 1e-12 || m.n != 6 || !m.quart {
		t.Errorf("groupTiming = %+v, want value sqrt(40), n 6, quartiles", m)
	}
	if math.Abs(m.q1-math.Sqrt(1.5*15)) > 1e-12 {
		t.Errorf("q1 = %v, want sqrt(1.5 x 15)", m.q1)
	}
}

// TestServeDeck checks the serve-mix deck against the traffic recorded
// in BENCH_serve.json: gemm three times as popular as each other named
// key and every fourth named request streamed; and 44 of 50 requests
// cache hits.
func TestServeDeck(t *testing.T) {
	rec, err := recordedPrograms()
	if err != nil {
		t.Fatal(err)
	}
	raws, err := rawPrograms()
	if err != nil {
		t.Fatal(err)
	}
	d, err := (&mix{named: rec, raw: raws}).deck()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	var named, streams, misses int
	for _, s := range d {
		switch s.class {
		case classHit, classStream:
			named++
			byName[s.prog.name]++
			if s.class == classStream {
				streams++
			}
		case classMiss:
			misses++
		}
	}
	for name, n := range byName {
		if name != "gemm" && 3*n != byName["gemm"] {
			t.Errorf("%s: %d named requests, gemm %d; want gemm three times as many", name, n, byName["gemm"])
		}
	}
	if 4*streams != named {
		t.Errorf("%d of %d named requests streamed, want a quarter", streams, named)
	}
	if len(d) != 50 || len(d)-misses != 44 {
		t.Errorf("deck of %d with %d misses, want 50 with 44 hits", len(d), misses)
	}
}

func TestSetupRoundsSchedule(t *testing.T) {
	// Step a 20-s measured phase in 10-ms passes, running every round
	// that is due; each round takes cost.
	schedule := func(cost time.Duration) *setupRounds {
		s := &setupRounds{dur: 20 * time.Second}
		s.record(0, cost)
		for at := time.Duration(0); at < s.dur; at += 10 * time.Millisecond {
			if s.due(at) {
				s.record(at, cost)
			}
		}
		return s
	}
	// Costly rounds take setupShare of the measured time: one every 2 s.
	if got := len(schedule(500 * time.Millisecond).secs); got != 10 {
		t.Errorf("0.5-s rounds over 20 s: %d, want 10", got)
	}
	// Cheap rounds are spaced dur/maxSetupRounds apart, up to the cap.
	s := schedule(time.Millisecond)
	if len(s.secs) != maxSetupRounds || s.due(time.Hour) {
		t.Errorf("1-ms rounds over 20 s: %d, want %d and no more due", len(s.secs), maxSetupRounds)
	}
}

// validName reports whether s is a legal metric or workload name:
// it starts with a letter or digit and holds at most 64 letters,
// digits, '_', '.' and '-'.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

func TestMetricNames(t *testing.T) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if !validName(d.name) {
				t.Errorf("metric name %q breaks the charset", d.name)
			}
		}
	}
	for _, w := range workloadNames {
		if !validName(w) {
			t.Errorf("workload name %q breaks the charset", w)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "p50/ms", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		// Set-up time has the widest bound: it is the least steady
		// figure, and work moved into set-up must still show.
		if m.Name != "setup_s" && m.Bound >= spec.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v not below setup_s's %v", m.Name, m.Bound, spec.EndToEnd[0].Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "perfbench" {
		t.Errorf("paths = %v, want [perfbench]", spec.Paths)
	}
}

func TestTraceAnalysis(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{gaps: map[int][][2]time.Duration{}, spans: []span{
		{name: "bench.op", parent: -1, start: 0, end: 100 * ms, closed: true},
		{name: "core.run", parent: 0, start: 10 * ms, end: 40 * ms, closed: true},
		{name: "core.check", parent: 0, start: 50 * ms, end: 90 * ms, closed: true},
		{name: "bench.op", parent: -1, start: 100 * ms, end: 200 * ms, closed: true},
	}}
	st, err := tr.analyze()
	if err != nil {
		t.Fatal(err)
	}
	if st.selfBy["bench"] != 130*ms || st.selfBy["core"] != 70*ms {
		t.Errorf("self times %v, want bench 130ms, core 70ms", st.selfBy)
	}
	if st.ops != 2 || st.uncovered != 0 {
		t.Errorf("ops %d uncovered %v, want 2 and 0", st.ops, st.uncovered)
	}

	// A gap between top-level spans is uncovered time, unless it was
	// declared untraced.
	tr.spans[3].start, tr.spans[3].end = 150*ms, 250*ms
	if _, err := tr.analyze(); err == nil {
		t.Error("a 50ms gap in 250ms passed the tiling check")
	}
	tr.gaps[0] = [][2]time.Duration{{100 * ms, 150 * ms}}
	if _, err := tr.analyze(); err != nil {
		t.Errorf("declared untraced gap: %v", err)
	}

	tr.spans[2].end = 120 * ms
	if _, err := tr.analyze(); err == nil {
		t.Error("a child outliving its parent passed")
	}
}

// TestSmoke runs every workload briefly, untraced, and one traced run,
// through the correctness gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload")
	}
	goldens := filepath.Join("..", "scripts", "bench_goldens.json")
	cases := [][]string{{"--trace", "1", "--workload", "sim-irregular"}}
	for _, w := range workloadNames {
		cases = append(cases, []string{"--trace", "0", "--workload", w})
	}
	for _, c := range cases {
		var out, errOut bytes.Buffer
		args := append([]string{"--seed", "7", "--seconds", "0.5", "-out", t.TempDir(), "-goldens", goldens}, c...)
		code := run(args, &out, &errOut)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%v: last line is not the result: %v\n%s%s", c, err, out.String(), errOut.String())
		}
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%v: exit %d, result %+v\n%s%s", c, code, res, out.String(), errOut.String())
		}
		want := endToEnd
		if c[1] == "1" {
			want = perLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%v: %d metrics, want %d", c, len(res.Metrics), len(want))
		}
	}
}
