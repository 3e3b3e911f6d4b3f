// Command sdbench regenerates the paper's evaluation artifacts: Table 3
// (area and power breakdown), Figure 11 (DNN speedups), Table 4
// (workload characterization), and Figures 12-15 (MachSuite vs
// iso-performance ASICs).
//
// Usage:
//
//	sdbench              # everything
//	sdbench -table 3     # one table
//	sdbench -fig 11      # one figure (12-15 run the same study)
//	sdbench -fix         # barrier-elimination study (docs/LINT.md)
//	sdbench -json        # simulator host-performance study -> BENCH_sim.json
//	sdbench -json -smoke # CI smoke slice, checked against the goldens
//	sdbench -json -update-goldens # rewrite the cycle and work goldens
//	sdbench -json -progress 2s # heartbeat lines to stderr while it runs
//	sdbench -timeout 10m # bound the whole run by wall clock
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"softbrain/internal/bench"
	"softbrain/internal/core"
)

func main() {
	table := flag.Int("table", 0, "print only this table (3 or 4)")
	fig := flag.Int("fig", 0, "print only this figure (11-15)")
	ablate := flag.Bool("ablate", false, "run the microarchitecture ablation study")
	fixStudy := flag.Bool("fix", false, "run the barrier synthesis/elimination study")
	jsonOut := flag.Bool("json", false, "measure simulator host performance and write JSON")
	smoke := flag.Bool("smoke", false, "with -json: only the CI smoke slice, checked against -goldens")
	out := flag.String("out", "BENCH_sim.json", "with -json: output path")
	goldens := flag.String("goldens", "scripts/bench_goldens.json", "with -json -smoke: golden cycle counts")
	updateGoldens := flag.Bool("update-goldens", false, "with -json: rewrite the goldens from this run, and the work goldens (work_goldens.json beside them) from untimed runs")
	ratchet := flag.String("ratchet", "", "with -json: committed BENCH_sim.json to ratchet ns/cycle against (fail on geomean regression past bench.PerfTolerance)")
	progress := flag.Duration("progress", 0, "with -json: print a heartbeat line per workload to stderr every interval, e.g. 2s (0 = off; heartbeats ride the timed runs, so host timings include their cost)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole run, e.g. 10m (0 = none; the cycle watchdog still applies)")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, *timeout,
			fmt.Errorf("sdbench: -timeout %v exceeded", *timeout))
		defer cancel()
	}

	if *jsonOut {
		if err := runSimBench(ctx, *smoke, *out, *goldens, *updateGoldens, *ratchet, *progress); err != nil {
			fail(err)
		}
		return
	}
	if *ablate {
		if err := printAblations(ctx); err != nil {
			fail(err)
		}
		return
	}
	if *fixStudy {
		if err := printFixStudy(ctx); err != nil {
			fail(err)
		}
		return
	}
	all := *table == 0 && *fig == 0
	if all || *table == 3 {
		printTable3()
	}
	if all || *fig == 11 {
		if err := printFig11(ctx); err != nil {
			fail(err)
		}
	}
	if all || *table == 4 {
		printTable4()
	}
	if all || (*fig >= 12 && *fig <= 15) {
		if err := printMachSuite(ctx, *fig); err != nil {
			fail(err)
		}
	}
}

// fail reports an execution error and exits. A wall-clock cancellation
// (-timeout) arrives as a core.CanceledError; print it on one line
// rather than the full machine-state rendering.
func fail(err error) {
	var ce *core.CanceledError
	if errors.As(err, &ce) {
		fmt.Fprintf(os.Stderr, "sdbench: %v\n", err)
		os.Exit(1)
	}
	log.Fatal(err)
}

// runSimBench measures simulated cycles and host wall time per workload
// (per-cycle ticking vs the event-driven scheduler), writes the JSON
// artifact, and — for the smoke slice — fails if simulated cycle counts
// drift from the committed goldens. With -ratchet it also fails if the
// geomean of the per-workload ns/cycle ratios against the committed
// BENCH_sim.json regressed more than bench.PerfTolerance.
func runSimBench(ctx context.Context, smoke bool, out, goldens string, update bool, ratchet string, progress time.Duration) error {
	var hb func(string, core.ProgressReport)
	if progress > 0 {
		hb = func(workload string, r core.ProgressReport) {
			fmt.Fprintf(os.Stderr, "sdbench: %s: %s\n", workload, r.Line())
		}
	}
	rows, err := bench.SimBench(ctx, smoke, progress, hb)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "workload\tunits\tcycles\twall ms (no skip)\twall ms\tns/cycle\tspeedup\tticks/cycle")
	for _, r := range rows {
		if r.Workload == bench.GeomeanWorkload {
			fmt.Fprintf(w, "%s\t\t\t\t\t%.1f\t%.2fx\t\n", r.Workload, r.NsPerCycle, r.Speedup)
			continue
		}
		ticksPerCycle := 0.0
		if r.Sched != nil {
			ticksPerCycle = r.Sched.TicksPerCycle
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.2fx\t%.2f\n",
			r.Workload, r.Units, r.Cycles,
			float64(r.WallNsNoSkip)/1e6, float64(r.WallNs)/1e6,
			r.NsPerCycle, r.Speedup, ticksPerCycle)
	}
	w.Flush()
	if err := bench.WriteSimJSON(rows, out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if update {
		if err := bench.UpdateSimGoldens(rows, goldens); err != nil {
			return err
		}
		work, err := bench.MeasureWork(ctx, smoke)
		if err != nil {
			return err
		}
		workGoldens := filepath.Join(filepath.Dir(goldens), "work_goldens.json")
		if err := bench.UpdateWorkGoldens(work, workGoldens); err != nil {
			return err
		}
		fmt.Printf("updated %s and %s\n", goldens, workGoldens)
		return nil
	}
	if smoke {
		if err := bench.CheckSimGoldens(rows, goldens); err != nil {
			return err
		}
	}
	if ratchet != "" {
		if err := bench.CheckSimPerf(rows, ratchet, bench.PerfTolerance); err != nil {
			return err
		}
		fmt.Printf("host-performance ratchet ok (geomean within %.0f%% of %s)\n", 100*bench.PerfTolerance, ratchet)
	}
	return nil
}

func printAblations(ctx context.Context) error {
	fmt.Println("Ablation study: warm-run cycles with features disabled")
	rows, err := bench.Ablations(ctx)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "workload\tbaseline\t-all-in-flight\t-dispatch-window\t-balance\twindow=2\thalf-depth ports\tcold base\tcold -inflight")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Workload, r.Baseline, r.NoAllInFlight, r.InOrderIssue,
			r.NoBalanceUnit, r.SmallWindow, r.ShallowPorts,
			r.ColdBaseline, r.ColdNoAllInFlight)
	}
	w.Flush()
	return nil
}

func printFixStudy(ctx context.Context) error {
	fmt.Println("Barrier study: cycles as shipped, fully serialized, and after sdfix;")
	fmt.Println("then placement: latest-legal baseline vs profile-guided cost-aware hoisting")
	rows, err := bench.FixStudy(ctx)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "workload\tbarriers\tserialized\tfixed\tcycles\tserialized\tfixed\trecovered\thoists\tlatest\thoisted\tdrain\thoisted\tdelta")
	for _, r := range rows {
		rec := 0.0
		if r.SerializedCy > r.FixedCy && r.SerializedCy > r.ShippedCy {
			rec = 100 * float64(r.SerializedCy-r.FixedCy) / float64(r.SerializedCy-r.ShippedCy)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f%%\t%d\t%d\t%d\t%d\t%d\t%+d\n",
			r.Workload, r.Shipped, r.Serialized, r.Fixed,
			r.ShippedCy, r.SerializedCy, r.FixedCy, rec,
			r.Hoists, r.LatestCy, r.HoistedCy,
			r.LatestDrain, r.HoistedDrain,
			int64(r.HoistedDrain)-int64(r.LatestDrain))
	}
	w.Flush()
	return nil
}

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func printTable3() {
	r := bench.Table3()
	fmt.Println("Table 3: Area and Power Breakdown / Comparison (55 nm)")
	w := tw()
	fmt.Fprintln(w, "component\tarea (mm^2)\tpower (mW)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%.2f\t%.1f\n", row.Component, row.AreaMM2, row.PowerMW)
	}
	fmt.Fprintf(w, "1 Softbrain Total\t%.2f\t%.1f\n", r.UnitArea, r.UnitPower)
	fmt.Fprintf(w, "8 Softbrain Units\t%.2f\t%.1f\n", r.TotalArea, r.TotalPower)
	fmt.Fprintf(w, "DianNao\t%.2f\t%.1f\n", r.DianNaoArea, r.DianNaoPower)
	fmt.Fprintf(w, "Softbrain/DianNao Overhead\t%.2fx\t%.2fx\n", r.AreaOverhead, r.PowerOverhead)
	w.Flush()
	fmt.Println()
}

func printFig11(ctx context.Context) error {
	fmt.Println("Figure 11: Performance on DNN Workloads (speedup vs 1-thread CPU)")
	rows, err := bench.Fig11(ctx)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "workload\tGPU\tDianNao\tSoftbrain\tSoftbrain cycles\tpower (mW)")
	for _, r := range rows {
		if r.SoftbrainCycles == 0 {
			fmt.Fprintf(w, "%s\t%.1fx\t%.1fx\t%.1fx\t\t\n", r.Workload, r.GPU, r.DianNao, r.Softbrain)
			continue
		}
		fmt.Fprintf(w, "%s\t%.1fx\t%.1fx\t%.1fx\t%d\t%.1f\n",
			r.Workload, r.GPU, r.DianNao, r.Softbrain, r.SoftbrainCycles, r.SoftbrainPowerMW)
	}
	w.Flush()
	fmt.Println()
	return nil
}

func printTable4() {
	fmt.Println("Table 4: Workload Characterization")
	w := tw()
	fmt.Fprintln(w, "workload\tstream patterns\tdatapath")
	for _, r := range bench.Table4() {
		if r.Unsuitable {
			continue
		}
		fmt.Fprintf(w, "%s\t%s\t%s\n", r.Workload, r.Patterns, r.Datapath)
	}
	w.Flush()
	fmt.Println("\nUnsuitable codes:")
	w = tw()
	for _, r := range bench.Table4() {
		if r.Unsuitable {
			fmt.Fprintf(w, "%s\t%s\n", r.Workload, r.Reason)
		}
	}
	w.Flush()
	fmt.Println()
}

func printMachSuite(ctx context.Context, fig int) error {
	rows, err := bench.MachSuiteStudy(ctx)
	if err != nil {
		return err
	}
	show := func(n int) bool { return fig == 0 || fig == n }
	if show(12) {
		fmt.Println("Figure 12: Speedup vs OOO4 baseline")
		w := tw()
		fmt.Fprintln(w, "workload\tSoftbrain\tASIC")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.2fx\t%.2fx\n", r.Workload, r.SoftbrainSpeedup, r.ASICSpeedup)
		}
		w.Flush()
		fmt.Println()
	}
	if show(13) {
		fmt.Println("Figure 13: Power efficiency vs OOO4 baseline")
		w := tw()
		fmt.Fprintln(w, "workload\tSoftbrain\tASIC")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1fx\t%.1fx\n", r.Workload, r.SoftbrainPowerEff, r.ASICPowerEff)
		}
		w.Flush()
		fmt.Println()
	}
	if show(14) {
		fmt.Println("Figure 14: Energy efficiency vs OOO4 baseline")
		w := tw()
		fmt.Fprintln(w, "workload\tSoftbrain\tASIC")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1fx\t%.1fx\n", r.Workload, r.SoftbrainEnergyEff, r.ASICEnergyEff)
		}
		w.Flush()
		fmt.Println()
	}
	if show(15) {
		fmt.Println("Figure 15: ASIC area relative to Softbrain")
		w := tw()
		fmt.Fprintln(w, "workload\tASIC/Softbrain area\tASIC design")
		for _, r := range rows {
			if r.Workload == "GM" {
				fmt.Fprintf(w, "%s\t%.3fx\t\n", r.Workload, r.ASICAreaRel)
				continue
			}
			fmt.Fprintf(w, "%s\t%.3fx\tunroll=%d pipelined=%v %.3f mm^2\n",
				r.Workload, r.ASICAreaRel, r.ASICDesign.Unroll, r.ASICDesign.Pipelined, r.ASICDesign.AreaMM2)
		}
		w.Flush()
		sb := bench.Table3().UnitArea
		fmt.Printf("\nAll eight ASICs together: %.2f mm^2 = %.2fx one Softbrain (%.2f mm^2)\n\n",
			bench.TotalASICArea(rows), bench.TotalASICArea(rows)/sb, sb)
	}
	return nil
}
