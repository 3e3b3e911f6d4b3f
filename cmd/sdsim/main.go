// Command sdsim runs one workload on the Softbrain simulator, verifies
// its output against the golden model, and prints statistics and power.
//
// Usage:
//
//	sdsim -list
//	sdsim -w gemm -scale 2
//	sdsim -w conv3p            # DNN layers run on the 8-unit cluster
//	sdsim -w gemm -faults delay:7   # run under a seeded fault profile (no -metrics, -trace-out, -progress or -trace)
//	sdsim -w gemm -metrics out.json            # stall attribution + bandwidth table
//	sdsim -w gemm -trace-out out.trace.json    # Chrome/Perfetto trace
//	sdsim -w gemm -trace                       # Figure 4(b)-style text timeline (no -metrics, -trace-out or -progress)
//	sdsim -w gemm -progress 2s                 # heartbeat to stderr
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"softbrain/internal/core"
	"softbrain/internal/faults"
	"softbrain/internal/obs"
	"softbrain/internal/power"
	"softbrain/internal/sim"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/catalog"
)

// observeFlags names the set flags that attach the observability
// layer to the run: a metrics dump, a Perfetto trace, a heartbeat.
func observeFlags(metricsPath, traceOut string, progress time.Duration) []string {
	var c []string
	if metricsPath != "" {
		c = append(c, "-metrics")
	}
	if traceOut != "" {
		c = append(c, "-trace-out")
	}
	if progress > 0 {
		c = append(c, "-progress")
	}
	return c
}

// faultConflicts names the set flags that a fault-profile run would
// drop: it writes no metrics dump or trace and prints no heartbeat or
// timeline.
func faultConflicts(metricsPath, traceOut string, progress time.Duration, trace bool) []string {
	c := observeFlags(metricsPath, traceOut, progress)
	if trace {
		c = append(c, "-trace")
	}
	return c
}

// traceConflicts names the set flags that -trace, when set, cannot be
// combined with: a run prints either the timeline or the observability
// reports.
func traceConflicts(metricsPath, traceOut string, progress time.Duration, trace bool) []string {
	if !trace {
		return nil
	}
	return observeFlags(metricsPath, traceOut, progress)
}

func main() {
	name := flag.String("w", "", "workload name (see -list)")
	scale := flag.Int("scale", 1, "problem scale for MachSuite workloads")
	warm := flag.Bool("warm", false, "measure a cache-warm (second) run")
	list := flag.Bool("list", false, "list available workloads")
	doTrace := flag.Bool("trace", false, "print an execution timeline of the cold run, one per unit; refuses -metrics, -trace-out and -progress")
	metricsPath := flag.String("metrics", "", "write the metrics dump (stall attribution, counters, per-stream bandwidth) as JSON to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file (load in ui.perfetto.dev)")
	progress := flag.Duration("progress", 0, "print a heartbeat (cycle, commands, stall mix) to stderr every interval, e.g. 2s")
	faultSpec := flag.String("faults", "", "fault profile \"name\" or \"name:seed\" ("+strings.Join(faults.Profiles(), ", ")+"); a faulted run writes no dump or trace, so it refuses -metrics, -trace-out, -progress and -trace")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the run, e.g. 30s (0 = none; the cycle watchdog still applies)")
	flag.Parse()
	if *faultSpec != "" {
		if c := faultConflicts(*metricsPath, *traceOut, *progress, *doTrace); len(c) > 0 {
			fmt.Fprintf(os.Stderr, "sdsim: -faults cannot be combined with %s: a faulted run writes no dump or trace and prints no heartbeat or timeline\n", strings.Join(c, ", "))
			os.Exit(2)
		}
	}
	if c := traceConflicts(*metricsPath, *traceOut, *progress, *doTrace); len(c) > 0 {
		fmt.Fprintf(os.Stderr, "sdsim: -trace cannot be combined with %s: a run prints either the timeline or their reports\n", strings.Join(c, ", "))
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, *timeout,
			fmt.Errorf("sdsim: -timeout %v exceeded", *timeout))
		defer cancel()
	}

	if *list || *name == "" {
		headers := map[string]string{
			"machsuite": "MachSuite workloads (single unit, broadly provisioned):",
			"ext":       "Extension workloads (the paper's footnote-3 codes):",
			"dnn":       "DNN layers (8-unit DNN-provisioned cluster):",
		}
		suite := ""
		for _, e := range catalog.All() {
			if e.Suite != suite {
				suite = e.Suite
				fmt.Println(headers[suite])
			}
			if suite == "dnn" {
				fmt.Printf("  %s", e.Name)
			} else {
				fmt.Printf("  %-14s %s / %s\n", e.Name, e.Patterns, e.Datapath)
			}
		}
		fmt.Println()
		return
	}

	e, err := catalog.Find(*name)
	if err != nil {
		log.Fatalf("%v (see -list)", err)
	}
	cfg := e.Config()
	inst, err := e.Build(cfg, *scale)
	if err != nil {
		log.Fatal(err)
	}
	units := inst.Units()
	if *faultSpec != "" {
		fc, err := faults.ParseProfile(*faultSpec)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Faults = &fc
	}
	// One run serves every mode; the flags pick what it carries and how
	// it is reported. A fault profile excludes the observability flags
	// and the timeline (faultConflicts), and those two exclude each
	// other (traceConflicts).
	faulted := cfg.Faults != nil
	observed := len(observeFlags(*metricsPath, *traceOut, *progress)) > 0
	timeline := *doTrace
	cl, stats, err := inst.Run(ctx, cfg, workloads.RunOpts{
		Warm: *warm && !timeline, // the timeline shows the cold run
		Prepare: func(cl *core.Cluster) {
			if observed || timeline {
				observe(cl, *traceOut != "" || timeline, *progress)
			}
		},
	})
	switch {
	case faulted:
		reportFaulted(inst, cfg, units, cl, stats, err)
	case err != nil:
		fail(err)
	case observed:
		if err := reportObserved(inst, cfg, units, cl, stats, *metricsPath, *traceOut); err != nil {
			fail(err)
		}
	case timeline:
		fmt.Printf("%s: verified OK, %d cycles\n\n", inst.Name, stats.Cycles)
		for i, in := range cl.TraceInputs(stats.Cycles) {
			if units > 1 {
				fmt.Printf("unit %d:\n", i)
			}
			fmt.Print(obs.Gantt(in, 100))
			if units > 1 {
				fmt.Println()
			}
		}
	default:
		model := power.NewModel(cfg)
		fmt.Printf("%s: verified OK on %d unit(s)\n\n", inst.Name, units)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(w, "cycles\t%d\n", stats.Cycles)
		fmt.Fprintf(w, "dataflow instances\t%d\n", stats.Instances)
		fmt.Fprintf(w, "functional-unit ops\t%d\n", stats.FUOps)
		fmt.Fprintf(w, "stream commands\t%d\n", stats.Commands)
		fmt.Fprintf(w, "control-core instructions\t%d\n", stats.CoreInstrs)
		fmt.Fprintf(w, "memory read / written\t%d / %d bytes\n", stats.MemBytesRead, stats.MemBytesWritten)
		fmt.Fprintf(w, "cache hits / misses\t%d / %d\n", stats.CacheHits, stats.CacheMisses)
		fmt.Fprintf(w, "scratchpad read / written\t%d / %d bytes\n", stats.ScratchBytesRead, stats.ScratchBytesWrit)
		fmt.Fprintf(w, "recurrence traffic\t%d bytes\n", stats.RecurrenceBytes)
		fmt.Fprintf(w, "average power\t%.1f mW\n", model.AveragePower(stats, units))
		fmt.Fprintf(w, "energy\t%.1f nJ\n", model.EnergyNJ(stats, units))
		w.Flush()
	}
}

// fail prints an execution error and exits. Hangs and recovered
// invariant panics arrive as structured errors whose rendering carries
// the classification, culprit stream/port, wait chain, and machine
// state, so they go to stderr verbatim rather than through log's
// single-line prefix.
func fail(err error) {
	var ce *core.CanceledError
	if errors.As(err, &ce) {
		fmt.Fprintf(os.Stderr, "sdsim: %v\n", err)
		os.Exit(1)
	}
	var de *core.DeadlockError
	var me *core.MachineError
	if errors.As(err, &de) || errors.As(err, &me) {
		fmt.Fprintf(os.Stderr, "sdsim: execution failed\n\n%v\n", err)
		os.Exit(1)
	}
	log.Fatal(err)
}

// reportFaulted reports a run under a fault profile with the delivered
// fault counts. Corrupting profiles may legitimately end in a
// verification mismatch or a classified hang; both are reported as
// structured errors, never a panic.
func reportFaulted(inst *workloads.Instance, cfg core.Config, units int, cl *core.Cluster, stats *core.Stats, err error) {
	verdict := "verified OK"
	var mm *workloads.MismatchError
	mismatch := errors.As(err, &mm)
	switch {
	case mismatch && cfg.Faults.Corrupting():
		verdict = fmt.Sprintf("output corrupted (expected under bitflips): %v", mm.Err)
	case err != nil:
		if cl != nil {
			fmt.Fprintf(os.Stderr, "sdsim: faults delivered: %v\n", cl.FaultStats())
		}
		if mismatch {
			log.Fatalf("non-corrupting faults changed the output: %v", mm.Err)
		}
		fail(err)
	}
	fmt.Printf("%s: %s on %d unit(s) under faults\n", inst.Name, verdict, units)
	fmt.Printf("cycles: %d\n", stats.Cycles)
	fmt.Printf("faults delivered: %v\n", cl.FaultStats())
}

// observe attaches the observability layer: the metrics registry
// (stall attribution, counters, stream bandwidth), traced — stall
// slices and stream lifetimes recorded — when the run feeds the
// Perfetto export or the timeline, and optionally the heartbeat.
func observe(cl *core.Cluster, traced bool, progress time.Duration) {
	var opts obs.Options
	if traced {
		opts.Slices = obs.DefaultSlices
	}
	cl.EnableMetrics(opts)
	if progress > 0 {
		cl.SetHeartbeat(progress, func(r core.ProgressReport) {
			fmt.Fprintf(os.Stderr, "sdsim: %s\n", r.Line())
		})
	}
}

// reportObserved checks and exports what observe collected: the
// bandwidth table, the observed run's scheduler counters and metrics
// dump (metricsPath), and the Perfetto trace (tracePath). Attaching
// metrics does not change how the run is scheduled, so the counters
// describe the same run as the dump.
func reportObserved(inst *workloads.Instance, cfg core.Config, units int,
	cl *core.Cluster, stats *core.Stats, metricsPath, tracePath string) error {
	dump := cl.MetricsDump()
	if err := obs.CheckConservation(dump); err != nil {
		return fmt.Errorf("stall attribution broke conservation: %w", err)
	}
	fmt.Printf("%s: verified OK on %d unit(s), %d cycles\n\n", inst.Name, units, stats.Cycles)
	lineRate := float64(cfg.Mem.LineBytes) / float64(cfg.Mem.MissInterval)
	fmt.Print(obs.BandwidthTable(dump, lineRate))
	if metricsPath != "" {
		printSched(cl.SchedStats(), cl.SchedTickBy(), units)
		data, err := dump.MarshalIndent()
		if err != nil {
			return err
		}
		if err := os.WriteFile(metricsPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("\nmetrics dump written to %s\n", metricsPath)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := obs.WriteTrace(f, cl.TraceInputs(stats.Cycles)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (load in ui.perfetto.dev or chrome://tracing)\n", tracePath)
	}
	return nil
}

// printSched renders the wake-set scheduler counters of the reported
// run: how many cycles were stepped vs jumped, how many component
// ticks the wake sets elided, and what each component ticked. These
// are host-performance diagnostics, deliberately kept out of the obs
// metrics dump (dumps are byte-compared across scheduling modes).
func printSched(s sim.SchedStats, by map[string]uint64, units int) {
	fmt.Printf("\nwake-set scheduler (event-driven run):\n")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	total := s.Cycles + s.Skipped
	fmt.Fprintf(w, "cycles stepped / jumped\t%d / %d (%d jumps)\n", s.Cycles, s.Skipped, s.Jumps)
	if total > 0 {
		fmt.Fprintf(w, "component ticks\t%d (%.2f per cycle, of %d registered)\n",
			s.CompTicks, float64(s.CompTicks)/float64(total), 6*units)
	}
	fmt.Fprintf(w, "component sleeps\t%d\n", s.CompSleeps)
	fmt.Fprintf(w, "signal wakes\t%d\n", s.SigWakes)
	names := []string{"cgra", "mse", "sse", "rse", "dispatch", "core"}
	for _, n := range names {
		fmt.Fprintf(w, "ticks: %s\t%d\n", n, by[n])
	}
	w.Flush()
}
