package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// metricDef names one metric of BENCHMARK.json with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every --trace 0 run reports, the end_to_end
// list of BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"ns_per_cycle_gm", "ns/cycle"},
	{"rss_mb", "MiB"},
}

// perLayer are the metrics every --trace 1 run reports, the per_layer
// list of BENCHMARK.json. Layer names are the internal/ module names.
var perLayer = []metricDef{
	{"workloads.build_ms", "ms"},
	{"core.new_cluster_ms", "ms"},
	{"core.init_ms", "ms"},
	{"core.run_ms", "ms"},
	{"core.check_ms", "ms"},
	{"core.unit_ns_per_cycle", "ns/cycle"},
	{"sim.ticks_per_cycle", "ticks/cycle"},
	{"sim.span_cycle_frac", "ratio"},
	{"sim.skip_cycle_frac", "ratio"},
	{"sim.sig_wakes_per_cycle", "wakes/cycle"},
	{"mem.ns_per_kib", "ns/KiB"},
	{"mem.cache_hit_ratio", "ratio"},
	{"mem.dram_util", "ratio"},
	{"obs.metrics_overhead", "ratio"},
	{"obs.dump_ms", "ms"},
	{"wire.decode_ms", "ms"},
	{"wire.key_ms", "ms"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.raw_p50_ms", "ms"},
	{"serve.stream_p50_ms", "ms"},
	{"serve.miss_overhead_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.dedups", "count"},
	{"serve.sheds", "count"},
	{"serve.progress_frames_per_stream", "frames/stream"},
	{"bench.self_ms", "ms/op"},
	{"workloads.self_ms", "ms/op"},
	{"core.self_ms", "ms/op"},
	{"obs.self_ms", "ms/op"},
	{"wire.self_ms", "ms/op"},
	{"trace.overhead", "ratio"},
	{"trace.uncovered_frac", "ratio"},
}

// metric is one reported figure. Timings carry their sample count and
// quartiles; derived ratios carry their numerator and denominator.
type metric struct {
	name, unit string
	value      float64
	n          int     // samples behind the value; 0 for exact counts
	q1, q3     float64 // quartiles of those samples, when quart is set
	quart      bool
	num, den   float64 // a derived ratio's parts, when of is set
	of         string  // what num and den are
	frac       bool    // a fraction: must lie in [0, 1]
}

// report collects a run's metrics, its operation census and every
// correctness-gate failure.
type report struct {
	workload  string
	attempted int
	failed    int
	metrics   []metric
	notes     []string
	problems  []string
}

func (r *report) add(m metric) {
	if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
		r.problemf("metric %s is not a number", m.name)
	}
	if m.frac && !(m.value >= 0 && m.value <= 1) {
		r.problemf("fraction %s = %g outside [0,1]", m.name, m.value)
	}
	r.metrics = append(r.metrics, m)
}

// failf records a failed operation: it counts against fail_frac.
func (r *report) failf(format string, args ...any) {
	r.failed++
	r.problemf(format, args...)
}

// problemf records a gate failure that is not an operation (a broken
// trace invariant, a fraction out of range).
func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.attempted > 0 }

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints every metric, the notes and the gate failures, then the
// result line holding exactly the metrics of want.
func (r *report) write(w io.Writer, want []metricDef) error {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultValue{}}
	byName := map[string]metric{}
	for _, m := range r.metrics {
		byName[m.name] = m
	}
	for _, d := range want {
		m, ok := byName[d.name]
		switch {
		case !ok:
			r.problemf("metric %s was not measured", d.name)
		case m.unit != d.unit:
			r.problemf("metric %s measured in %s, declared in %s", d.name, m.unit, d.unit)
		case !math.IsNaN(m.value) && !math.IsInf(m.value, 0):
			res.Metrics[d.name] = resultValue{Value: m.value, Unit: d.unit}
		}
	}
	res.Correct = r.correct()

	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %d operations attempted, %d failed\n", r.workload, r.attempted, r.failed)
	for _, m := range r.metrics {
		fmt.Fprintf(&b, "%-34s %14s %-13s", m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit)
		if m.n > 0 {
			fmt.Fprintf(&b, " n=%d", m.n)
		}
		if m.quart {
			fmt.Fprintf(&b, " q1=%s q3=%s", strconv.FormatFloat(m.q1, 'g', 5, 64), strconv.FormatFloat(m.q3, 'g', 5, 64))
		}
		if m.of != "" {
			fmt.Fprintf(&b, " = %s / %s (%s)", strconv.FormatFloat(m.num, 'g', 8, 64), strconv.FormatFloat(m.den, 'g', 8, 64), m.of)
		}
		b.WriteByte('\n')
	}
	for _, n := range r.notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(&b, "FAIL: %s\n", p)
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// timing builds a metric from samples (milliseconds or seconds): the
// q-quantile, with the quartiles alongside when it is the median.
func timing(name, unit string, xs []float64, q float64) metric {
	m := metric{name: name, unit: unit, value: percentile(xs, q), n: len(xs)}
	if q == 0.5 {
		m.q1, m.q3, m.quart = percentile(xs, 0.25), percentile(xs, 0.75), true
	}
	return m
}

// groupTiming is timing over groups of samples: the geometric mean over
// the groups of each group's q-quantile, and of its quartiles when q is
// the median; n counts every sample.
func groupTiming(name, unit string, groups [][]float64, q float64) metric {
	m := metric{name: name, unit: unit, quart: q == 0.5}
	var vs, q1s, q3s []float64
	for _, g := range groups {
		t := timing(name, unit, g, q)
		vs, q1s, q3s = append(vs, t.value), append(q1s, t.q1), append(q3s, t.q3)
		m.n += t.n
	}
	m.value, m.q1, m.q3 = geomean(vs), geomean(q1s), geomean(q3s)
	return m
}

// ratio builds a derived metric printed with its numerator and
// denominator.
func ratio(name, unit string, num, den float64, of string, frac bool) metric {
	v := math.NaN()
	if den != 0 {
		v = num / den
	}
	return metric{name: name, unit: unit, value: v, num: num, den: den, of: of, frac: frac}
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
