package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"softbrain/internal/core"
	"softbrain/internal/obs"
	"softbrain/internal/sim"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/catalog"
)

// SimRow is one workload's simulator host-performance measurement: the
// simulated cycle count (identical with skipping off and on — the
// equivalence tests enforce it) and the host wall time both ways.
type SimRow struct {
	Workload string `json:"workload"`
	Units    int    `json:"units"`
	Cycles   uint64 `json:"cycles"`

	WallNsNoSkip int64 `json:"wall_ns_noskip"` // host ns, every cycle ticked
	WallNs       int64 `json:"wall_ns"`        // host ns, idle skip-ahead on

	NsPerCycleNoSkip float64 `json:"ns_per_cycle_noskip"`
	NsPerCycle       float64 `json:"ns_per_cycle"`
	Speedup          float64 `json:"speedup"` // wall_ns_noskip / wall_ns

	// Stall attribution and data movement from a metrics-enabled run
	// (internal/obs): per component, cause -> cycles summed across
	// units; total bytes moved by retired streams; the memory streams'
	// bytes per cycle, cache hits included; and the fraction of the
	// shared DRAM channel's access slots the run used.
	Stalls         map[string]map[string]uint64 `json:"stall_cycles,omitempty"`
	BytesMoved     uint64                       `json:"bytes_moved,omitempty"`
	MemBytesPerCyc float64                      `json:"mem_bytes_per_cycle,omitempty"`
	MemUtilization float64                      `json:"mem_utilization,omitempty"` // 0..1

	// Sched summarizes the wake-set scheduler's behavior on a default-
	// scheduled run: where the host-time win comes from. Deliberately
	// outside the obs dump — dumps are byte-compared across scheduling
	// modes, and these counters exist to differ between modes.
	Sched *SchedSummary `json:"sched,omitempty"`
}

// SchedSummary is the JSON shape of sim.SchedStats aggregated across a
// run's units, plus derived ratios.
type SchedSummary struct {
	SteppedCycles uint64 `json:"stepped_cycles"` // cycles the run loop stepped
	SkippedCycles uint64 `json:"skipped_cycles"` // cycles elided by frozen jumps
	Jumps         uint64 `json:"jumps"`
	CompTicks     uint64 `json:"comp_ticks"`
	CompSleeps    uint64 `json:"comp_sleeps"`
	SigWakes      uint64 `json:"sig_wakes"` // wakes caused by a raised watched signal

	// TicksPerCycle is CompTicks over all simulated cycles (stepped +
	// skipped): the average number of components the scheduler actually
	// ran per cycle, against 6 per cycle for the tick-everything loop.
	TicksPerCycle float64 `json:"ticks_per_cycle"`

	// TickHist[k] counts stepped cycles with exactly k component ticks
	// (last bucket absorbs larger counts).
	TickHist []uint64 `json:"tick_hist"`

	// TicksBy is the executed tick count per component name.
	TicksBy map[string]uint64 `json:"ticks_by"`
}

// newSchedSummary converts the kernel counters to the JSON shape,
// trimming trailing zero histogram buckets.
func newSchedSummary(s sim.SchedStats, by map[string]uint64) *SchedSummary {
	n := len(s.TickHist)
	for n > 0 && s.TickHist[n-1] == 0 {
		n--
	}
	sum := &SchedSummary{
		SteppedCycles: s.Cycles,
		SkippedCycles: s.Skipped,
		Jumps:         s.Jumps,
		CompTicks:     s.CompTicks,
		CompSleeps:    s.CompSleeps,
		SigWakes:      s.SigWakes,
		TickHist:      append([]uint64(nil), s.TickHist[:n]...),
		TicksBy:       by,
	}
	if total := s.Cycles + s.Skipped; total > 0 {
		sum.TicksPerCycle = float64(s.CompTicks) / float64(total)
	}
	return sum
}

// simEntry is one workload in the host-performance suite.
type simEntry struct {
	name  string
	build func() (*workloads.Instance, core.Config, error)
	smoke bool // part of the CI smoke slice
}

// simSuite lists the measured workloads: the full MachSuite set and
// the first two DNN layers on the 8-unit cluster, gemm over four units,
// and lut. The smoke slice is the small subset make bench-smoke pins
// against scripts/bench_goldens.json.
func simSuite() []simEntry {
	smoke := map[string]bool{"bfs": true, "spmv-crs": true, "gemm": true, "lut": true}
	named := func(name string, scale int) simEntry {
		return simEntry{name: name, smoke: smoke[name], build: func() (*workloads.Instance, core.Config, error) {
			return catalog.Build(name, scale)
		}}
	}
	var entries []simEntry
	for _, e := range catalog.All() {
		if e.Suite == "machsuite" {
			entries = append(entries, named(e.Name, benchScale(e.Name)))
		}
	}
	entries = append(entries, named("class1p", 1), named("class3p", 1))
	// A MachSuite kernel replicated over a four-unit cluster: the
	// multi-unit host-performance point outside the DNN configuration.
	// The units run identical programs against one shared image (the
	// writes are idempotent, so verification holds) and contend for the
	// shared DRAM channel, granted in unit order each cycle.
	entries = append(entries, simEntry{name: "gemm-x4", build: func() (*workloads.Instance, core.Config, error) {
		var x4 *workloads.Instance
		var cfg core.Config
		for k := 0; k < 4; k++ {
			inst, c, err := catalog.Build("gemm", benchScale("gemm"))
			if err != nil {
				return nil, c, err
			}
			if x4 == nil {
				x4, cfg = inst, c
			} else {
				x4.Progs = append(x4.Progs, inst.Progs...)
			}
		}
		x4.Name = "gemm-x4"
		return x4, cfg, nil
	}})
	// The scratch round-trip gather rides in the smoke slice: its cycle
	// golden pins the barrier-minimal shipped program, which depends on
	// the linter's round-trip value tracking staying sound.
	return append(entries, named("lut", 2))
}

// SimBench measures simulator host performance over the suite (or just
// the smoke slice): each workload runs once with skip-ahead disabled
// and once enabled, wall-clocked. The simulated cycle counts must agree
// or the row is an error — this doubles as an end-to-end equivalence
// check on every benchmarked workload. The context bounds the whole
// run (sdbench -timeout). When hb is non-nil it is attached to every
// timed simulation as a progress heartbeat (sdbench -progress) and
// fires from inside the run loop at most every `every`, carrying the
// workload's name. The callback executes on the simulator's critical
// path, so the measured host timings include its (small) cost;
// simulated cycle counts are unaffected by contract.
func SimBench(ctx context.Context, smokeOnly bool, every time.Duration, hb func(workload string, r core.ProgressReport)) ([]SimRow, error) {
	var rows []SimRow
	for _, e := range simSuite() {
		if smokeOnly && !e.smoke {
			continue
		}
		var prep func(*core.Cluster)
		if hb != nil {
			name := e.name
			prep = func(cl *core.Cluster) {
				cl.SetHeartbeat(every, func(r core.ProgressReport) { hb(name, r) })
			}
		}
		// Best-of-N repetitions per mode with an adaptive N: single runs
		// are at the millisecond scale (some below it), where scheduler
		// and GC noise swamps the signal, so each mode keeps repeating
		// until it has accumulated enough measured wall time for the
		// minimum to be trustworthy. Cycle counts must agree across
		// every run.
		const (
			minReps    = 3
			maxReps    = 25
			minTotalNs = int64(50e6)
		)
		run := func(sched core.SchedMode) (uint64, int64, error) {
			var cycles uint64
			var best, total int64
			for rep := 0; rep < maxReps; rep++ {
				if rep >= minReps && total >= minTotalNs {
					break
				}
				inst, cfg, err := e.build()
				if err != nil {
					return 0, 0, err
				}
				cfg.Sched = sched
				start := time.Now()
				_, stats, err := inst.Run(ctx, cfg, workloads.RunOpts{Prepare: prep})
				if err != nil {
					return 0, 0, err
				}
				ns := time.Since(start).Nanoseconds()
				total += ns
				if rep == 0 {
					cycles, best = stats.Cycles, ns
					continue
				}
				if stats.Cycles != cycles {
					return 0, 0, fmt.Errorf("bench: %s: nondeterministic cycle count (%d then %d)",
						e.name, cycles, stats.Cycles)
				}
				if ns < best {
					best = ns
				}
			}
			return cycles, best, nil
		}
		offCycles, offNs, err := run(core.SchedPerCycle)
		if err != nil {
			return nil, fmt.Errorf("bench: %s (no skip): %w", e.name, err)
		}
		onCycles, onNs, err := run(core.SchedWakeSet)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.name, err)
		}
		if offCycles != onCycles {
			return nil, fmt.Errorf("bench: %s: %d cycles without skip-ahead, %d with — skip-ahead changed the simulation",
				e.name, offCycles, onCycles)
		}
		inst, cfg, err := e.build()
		if err != nil {
			return nil, err
		}
		row := SimRow{
			Workload:     e.name,
			Units:        inst.Units(),
			Cycles:       onCycles,
			WallNsNoSkip: offNs,
			WallNs:       onNs,
		}
		if err := metricsColumns(ctx, &row, inst, cfg); err != nil {
			return nil, err
		}
		if onCycles > 0 {
			row.NsPerCycleNoSkip = float64(offNs) / float64(onCycles)
			row.NsPerCycle = float64(onNs) / float64(onCycles)
		}
		if onNs > 0 {
			row.Speedup = float64(offNs) / float64(onNs)
		}
		rows = append(rows, row)
	}
	if len(rows) > 0 {
		rows = append(rows, geomeanRow(rows))
	}
	return rows, nil
}

// metricsColumns fills row's stall, data-movement and scheduler
// columns from one extra, untimed run with the observability layer
// attached. Its cycle count must equal row.Cycles — metrics are
// read-only by contract — and attaching them does not change how the
// run is scheduled, so its scheduler counters are the default mode's
// behind the speedup column. MemUtilization counts DRAM access slots:
// every cache miss takes one, and the shared channel grants one per
// MissInterval cycles, so the fraction is at most 1.
func metricsColumns(ctx context.Context, row *SimRow, inst *workloads.Instance, cfg core.Config) error {
	cl, stats, err := inst.Run(ctx, cfg, workloads.RunOpts{
		Prepare: func(cl *core.Cluster) { cl.EnableMetrics(obs.Options{}) },
	})
	if err != nil {
		return fmt.Errorf("bench: %s (metrics): %w", row.Workload, err)
	}
	dump := cl.MetricsDump()
	if stats.Cycles != row.Cycles {
		return fmt.Errorf("bench: %s: enabling metrics changed the cycle count (%d -> %d)",
			row.Workload, row.Cycles, stats.Cycles)
	}
	if err := obs.CheckConservation(dump); err != nil {
		return fmt.Errorf("bench: %s: %w", row.Workload, err)
	}
	row.Stalls = stallCycles(dump)
	row.Sched = newSchedSummary(cl.SchedStats(), cl.SchedTickBy())
	var memBytes uint64
	for _, s := range dump.Total.Streams {
		row.BytesMoved += s.Bytes
		if obs.MemKind(s.Kind) {
			memBytes += s.Bytes
		}
	}
	if row.Cycles > 0 {
		row.MemBytesPerCyc = float64(memBytes) / float64(row.Cycles)
		row.MemUtilization = float64(stats.CacheMisses*cfg.Mem.MissInterval) / float64(row.Cycles)
	}
	return nil
}

// GeomeanWorkload names the aggregate row SimBench appends: the
// geometric mean of the per-workload host-performance figures. Its
// Cycles field is zero, which excludes it from the cycle goldens.
const GeomeanWorkload = "geomean"

// geomeanRow aggregates the host-performance columns of rows.
func geomeanRow(rows []SimRow) SimRow {
	gm := func(pick func(SimRow) float64) float64 {
		sum, n := 0.0, 0
		for _, r := range rows {
			if v := pick(r); v > 0 {
				sum += math.Log(v)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return math.Exp(sum / float64(n))
	}
	return SimRow{
		Workload:         GeomeanWorkload,
		NsPerCycleNoSkip: gm(func(r SimRow) float64 { return r.NsPerCycleNoSkip }),
		NsPerCycle:       gm(func(r SimRow) float64 { return r.NsPerCycle }),
		Speedup:          gm(func(r SimRow) float64 { return r.Speedup }),
	}
}

// PerfTolerance is the default host-performance ratchet slack: the
// geomean of the per-workload ns_per_cycle ratios against the committed
// baseline may exceed 1 by this fraction before CheckSimPerf fails.
// Host timing on a shared machine is noisy — a single contention spike
// can inflate one workload's best-of-N by well over 50% — so the
// ratchet aggregates: one noisy workload contributes only its n-th
// root to the geomean, while a structural regression (say, the wake-set
// scheduler silently disabled) inflates every ratio at once and fails
// decisively. The tolerance is sized for that split: structural
// regressions show up as 1.5–2×+ across the board, while ambient load
// rarely moves the whole geomean past ~1.25; CI additionally retries
// the smoke gate once before failing.
const PerfTolerance = 0.35

// CheckSimPerf is the host-performance ratchet: it compares each
// measured row's ns_per_cycle (event-driven mode) against the committed
// baseline (BENCH_sim.json) and fails when the geomean of the ratios
// exceeds 1+tol (fractional, e.g. 0.35 for 35%). Workloads absent from
// either side are ignored, so the smoke slice ratchets against a full
// baseline; aggregate rows (no cycle count) are excluded since the
// baseline's geomean spans a different workload set than the smoke
// run's.
func CheckSimPerf(rows []SimRow, baselinePath string, tol float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base []SimRow
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bench: parsing %s: %w", baselinePath, err)
	}
	committed := map[string]float64{}
	for _, r := range base {
		if r.Cycles > 0 {
			committed[r.Workload] = r.NsPerCycle
		}
	}
	var logSum float64
	var detail []string
	n := 0
	for _, r := range rows {
		want, ok := committed[r.Workload]
		if !ok || r.Cycles == 0 || want <= 0 || r.NsPerCycle <= 0 {
			continue
		}
		ratio := r.NsPerCycle / want
		logSum += math.Log(ratio)
		n++
		detail = append(detail, fmt.Sprintf("%s: %.1f ns/cycle, committed %.1f (%+.0f%%)",
			r.Workload, r.NsPerCycle, want, 100*(ratio-1)))
	}
	if n == 0 {
		return fmt.Errorf("bench: no workload in common with baseline %s", baselinePath)
	}
	gm := math.Exp(logSum / float64(n))
	if gm > 1+tol {
		return fmt.Errorf("bench: host performance regressed %.0f%% (geomean over %d workloads, tolerance %.0f%%) versus %s:\n  %s\n(intentional? regenerate the baseline with: go run ./cmd/sdbench -json)",
			100*(gm-1), n, 100*tol, baselinePath, strings.Join(detail, "\n  "))
	}
	return nil
}

// WriteSimJSON writes rows to path as indented JSON (BENCH_sim.json).
func WriteSimJSON(rows []SimRow, path string) error {
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CheckSimGoldens compares measured cycle counts against the committed
// goldens (scripts/bench_goldens.json, a workload -> cycles map) and
// reports every drift. Wall times are host-dependent and not checked.
// Workloads absent from the goldens are ignored, so the smoke slice can
// run against a full goldens file and vice versa.
func CheckSimGoldens(rows []SimRow, goldenPath string) error {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	var want map[string]uint64
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("bench: parsing %s: %w", goldenPath, err)
	}
	var drift []string
	for _, r := range rows {
		if r.Cycles == 0 {
			continue // aggregate rows carry no cycle count
		}
		if w, ok := want[r.Workload]; ok && w != r.Cycles {
			drift = append(drift, fmt.Sprintf("%s: %d cycles, golden %d", r.Workload, r.Cycles, w))
		}
	}
	if len(drift) > 0 {
		return fmt.Errorf("bench: cycle counts drifted from %s:\n  %s\n(intentional? regenerate with: go run ./cmd/sdbench -json -update-goldens)",
			goldenPath, strings.Join(drift, "\n  "))
	}
	return nil
}

// UpdateSimGoldens rewrites the goldens file from the measured rows.
func UpdateSimGoldens(rows []SimRow, goldenPath string) error {
	want := map[string]uint64{}
	for _, r := range rows {
		if r.Cycles == 0 {
			continue // aggregate rows carry no cycle count
		}
		want[r.Workload] = r.Cycles
	}
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}

// Work is one workload's host-independent cost, the work goldens
// (scripts/work_goldens.json) that gate a change on any host: the
// wake-set scheduler's counters from a default-scheduled cold run,
// which are exact, the heap allocations of one Instance.Run
// (runtime.MemStats.Mallocs delta), the minimum over workReps runs,
// which is exact up to a few allocations of runtime noise, and the
// stall attribution of one untimed metrics run, which is exact and
// scheduled exactly like the others.
type Work struct {
	SteppedCycles uint64 `json:"stepped_cycles"`
	SkippedCycles uint64 `json:"skipped_cycles"`
	CompTicks     uint64 `json:"comp_ticks"`
	SigWakes      uint64 `json:"sig_wakes"`
	Mallocs       uint64 `json:"mallocs"`

	// Stalls is the metrics run's attribution: per component, cause ->
	// cycles summed across units (the sdbench -json stall_cycles).
	Stalls map[string]map[string]uint64 `json:"stall_cycles"`
}

// workReps is the number of runs whose minimum allocation count the
// work goldens record; the first run of an instance also seals its
// programs.
const workReps = 3

// MeasureWork runs every suite workload (or the smoke slice) workReps
// times, cold and default-scheduled, and reports its work keyed by
// workload name, with the fewest allocations any run made.
func MeasureWork(ctx context.Context, smokeOnly bool) (map[string]Work, error) {
	out := map[string]Work{}
	for _, e := range simSuite() {
		if smokeOnly && !e.smoke {
			continue
		}
		inst, cfg, err := e.build()
		if err != nil {
			return nil, err
		}
		var w Work
		var sched sim.SchedStats
		for rep := 0; rep < workReps; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cl, _, err := inst.Run(ctx, cfg, workloads.RunOpts{})
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, fmt.Errorf("bench: %s (work): %w", e.name, err)
			}
			s := cl.SchedStats()
			run := Work{
				SteppedCycles: s.Cycles,
				SkippedCycles: s.Skipped,
				CompTicks:     s.CompTicks,
				SigWakes:      s.SigWakes,
			}
			mallocs := after.Mallocs - before.Mallocs
			if rep == 0 {
				w, w.Mallocs, sched = run, mallocs, s
				continue
			}
			if run.Mallocs = w.Mallocs; !reflect.DeepEqual(run, w) {
				return nil, fmt.Errorf("bench: %s: nondeterministic scheduler counters (%+v then %+v)", e.name, w, run)
			}
			w.Mallocs = min(w.Mallocs, mallocs)
		}
		cl, _, err := inst.Run(ctx, cfg, workloads.RunOpts{
			Prepare: func(cl *core.Cluster) { cl.EnableMetrics(obs.Options{}) },
		})
		if err != nil {
			return nil, fmt.Errorf("bench: %s (work metrics): %w", e.name, err)
		}
		if s := cl.SchedStats(); s != sched {
			return nil, fmt.Errorf("bench: %s: attaching metrics changed the scheduler counters (%+v then %+v)", e.name, sched, s)
		}
		w.Stalls = stallCycles(cl.MetricsDump())
		out[e.name] = w
	}
	return out, nil
}

// stallCycles is a dump's attribution: per component, cause -> cycles.
func stallCycles(d obs.Dump) map[string]map[string]uint64 {
	out := map[string]map[string]uint64{}
	for _, c := range d.Total.Components {
		out[c.Name] = c.Causes
	}
	return out
}

// UpdateWorkGoldens rewrites the work goldens file from measured work.
func UpdateWorkGoldens(work map[string]Work, path string) error {
	data, err := json.MarshalIndent(work, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
