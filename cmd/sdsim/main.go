// Command sdsim runs one workload on the Softbrain simulator, verifies
// its output against the golden model, and prints statistics and power.
//
// Usage:
//
//	sdsim -list
//	sdsim -w gemm -scale 2
//	sdsim -w conv3p            # DNN layers run on the 8-unit cluster
//	sdsim -w gemm -faults delay:7   # run under a seeded fault profile
//	sdsim -w gemm -metrics out.json            # stall attribution + bandwidth table
//	sdsim -w gemm -trace-out out.trace.json    # Chrome/Perfetto trace
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
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/ext"
	"softbrain/internal/workloads/machsuite"
)

func main() {
	name := flag.String("w", "", "workload name (see -list)")
	scale := flag.Int("scale", 1, "problem scale for MachSuite workloads")
	warm := flag.Bool("warm", false, "measure a cache-warm (second) run")
	list := flag.Bool("list", false, "list available workloads")
	doTrace := flag.Bool("trace", false, "print an execution timeline (single-unit workloads)")
	metricsPath := flag.String("metrics", "", "write the metrics dump (stall attribution, counters, per-stream bandwidth) as JSON to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file (load in ui.perfetto.dev)")
	progress := flag.Duration("progress", 0, "print a heartbeat (cycle, commands, stall mix) to stderr every interval, e.g. 2s")
	faultSpec := flag.String("faults", "", "fault profile \"name\" or \"name:seed\" ("+strings.Join(faults.Profiles(), ", ")+")")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the run, e.g. 30s (0 = none; the cycle watchdog still applies)")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, *timeout,
			fmt.Errorf("sdsim: -timeout %v exceeded", *timeout))
		defer cancel()
	}

	if *list || *name == "" {
		fmt.Println("MachSuite workloads (single unit, broadly provisioned):")
		for _, e := range machsuite.All() {
			fmt.Printf("  %-14s %s / %s\n", e.Name, e.Patterns, e.Datapath)
		}
		fmt.Println("Extension workloads (the paper's footnote-3 codes):")
		for _, e := range ext.All() {
			fmt.Printf("  %-14s %s / %s\n", e.Name, e.Patterns, e.Datapath)
		}
		fmt.Println("DNN layers (8-unit DNN-provisioned cluster):")
		for _, l := range dnn.Layers() {
			fmt.Printf("  %s", l.Name)
		}
		fmt.Println()
		return
	}

	inst, cfg, units, err := build(*name, *scale)
	if err != nil {
		log.Fatal(err)
	}
	if *faultSpec != "" {
		fc, err := faults.ParseProfile(*faultSpec)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Faults = &fc
	}
	// One run serves every mode; the flags pick what it carries and how
	// it is reported. A fault profile takes precedence over the
	// observability flags, and those over the timeline.
	faulted := cfg.Faults != nil
	observed := !faulted && (*metricsPath != "" || *traceOut != "" || *progress > 0)
	timeline := !faulted && !observed && *doTrace && units == 1
	cl, stats, err := inst.Run(ctx, cfg, workloads.RunOpts{
		Warm: *warm && !timeline, // the timeline shows the cold run
		Prepare: func(cl *core.Cluster) {
			switch {
			case observed:
				observe(cl, *traceOut != "", *progress)
			case timeline:
				cl.Units[0].EnableTrace(4096)
			}
		},
	})
	switch {
	case faulted:
		reportFaulted(inst, cfg, units, cl, stats, err)
	case err != nil:
		fail(err)
	case observed:
		if err := reportObserved(ctx, inst, cfg, units, *warm, cl, stats, *metricsPath, *traceOut); err != nil {
			fail(err)
		}
	case timeline:
		fmt.Printf("%s: verified OK, %d cycles\n\n", inst.Name, stats.Cycles)
		fmt.Print(cl.Units[0].Trace().Gantt(100))
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
// (stall attribution, counters, stream bandwidth), optionally the span
// recorders feeding the Perfetto export, and optionally the heartbeat.
func observe(cl *core.Cluster, traced bool, progress time.Duration) {
	cl.EnableMetrics(obs.Options{Slices: obs.DefaultSlices})
	if traced {
		for _, u := range cl.Units {
			u.EnableTrace(4096)
		}
	}
	if progress > 0 {
		cl.SetHeartbeat(progress, func(r core.ProgressReport) {
			fmt.Fprintf(os.Stderr, "sdsim: %s\n", r.Line())
		})
	}
}

// reportObserved checks and exports what observe collected: the
// bandwidth table, the scheduler counters and metrics dump (metricsPath),
// and the Perfetto trace (tracePath).
func reportObserved(ctx context.Context, inst *workloads.Instance, cfg core.Config, units int, warm bool,
	cl *core.Cluster, stats *core.Stats, metricsPath, tracePath string) error {
	dump := cl.MetricsDump()
	if err := obs.CheckConservation(dump); err != nil {
		return fmt.Errorf("stall attribution broke conservation: %w", err)
	}
	fmt.Printf("%s: verified OK on %d unit(s), %d cycles\n\n", inst.Name, units, stats.Cycles)
	peak := float64(cfg.Mem.LineBytes) / float64(cfg.Mem.MissInterval)
	fmt.Print(obs.BandwidthTable(dump, peak))
	if metricsPath != "" {
		// The wake-set scheduler's own counters come from a separate,
		// identically warm run: attaching the metrics registry forces
		// per-cycle stall attribution, which disables span retirement,
		// so the observed run above cannot show what the event-driven
		// scheduler does by default. The extra run doubles as an
		// equivalence check on its cycle count.
		sCl, sStats, err := inst.Run(ctx, cfg, workloads.RunOpts{Warm: warm})
		if err != nil {
			return err
		}
		if sStats.Cycles != stats.Cycles {
			return fmt.Errorf("event-driven run changed the cycle count (%d -> %d)", stats.Cycles, sStats.Cycles)
		}
		printSched(sCl.SchedStats(), sCl.SchedTickBy(), units)
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

// printSched renders the wake-set scheduler counters of one full
// event-driven run: how many cycles were stepped vs jumped, how many
// component ticks the wake sets elided, and what span retirement
// batched. These are host-performance diagnostics, deliberately kept
// out of the obs metrics dump (dumps are byte-compared across
// scheduling modes).
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
	fmt.Fprintf(w, "spans retired\t%d, covering %d cycles\n", s.Spans, s.SpanCycles)
	names := []string{"cgra", "mse", "sse", "rse", "dispatch", "core"}
	for _, n := range names {
		fmt.Fprintf(w, "ticks: %s\t%d\n", n, by[n])
	}
	w.Flush()
	if s.Spans > 0 {
		fmt.Printf("span lengths (log2 buckets):")
		for b, n := range s.SpanHist {
			if n == 0 {
				continue
			}
			lo := uint64(1) << b
			hi := lo*2 - 1
			if b == 0 {
				fmt.Printf("  1:%d", n)
			} else {
				fmt.Printf("  %d-%d:%d", lo, hi, n)
			}
		}
		fmt.Println()
	}
}

func build(name string, scale int) (*workloads.Instance, core.Config, int, error) {
	if l, err := dnn.Find(name); err == nil {
		cfg := dnn.Config()
		inst, err := l.Build(cfg, dnn.Units)
		return inst, cfg, dnn.Units, err
	}
	cfg := core.DefaultConfig()
	if e, err := machsuite.Find(name); err == nil {
		inst, err := e.Build(cfg, scale)
		return inst, cfg, 1, err
	}
	e, err := ext.Find(name)
	if err != nil {
		return nil, core.Config{}, 0, fmt.Errorf("unknown workload %q (see -list)", name)
	}
	inst, err := e.Build(cfg, scale)
	return inst, cfg, 1, err
}
