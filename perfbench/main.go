// Command perfbench is the repository benchmark: host time of the
// Softbrain simulator and of its service, end to end and layer by layer.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this module (it imports the repository's packages
// through a replace directive) and runs it from the repository root.
//
// Workloads, each a closed loop in its own process:
//
//	sim-irregular  bfs s6, spmv-crs s4, spmv-ellpack s4, md-knn s4, lut s2 on one unit
//	sim-cluster    class1p, class3p on the 8-unit DNN cluster, gemm-x4 on four units
//	serve-mix      the service behind a loopback listener, two clients, the
//	               traffic recorded in BENCH_serve.json (cache hits, every
//	               4th over SSE) plus misses, raw programs and metrics
//	               requests
//
// A simulation operation is one Cluster.RunContext call; each is
// preceded, untimed, by a heap collection, core.NewCluster and
// Instance.Init, and followed by Instance.Check. A service operation is
// one request round trip. The seed orders the programs of each
// round-robin pass and the service's request sequence; the programs and
// their inputs are the committed ones, so cycle counts must equal
// scripts/bench_goldens.json.
//
// setup_s is the median set-up round: building every program and one
// warm-up operation per program or hit key (serve-mix: on a fresh
// server, after in-process reference runs). The first round is timed
// from process start; the others are interleaved with the measured
// phase, whose seconds they do not count against.
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a layer loop whose rounds alternate between
// untraced and traced, plus a traced service phase, and writes the spans
// as Chrome trace-event JSON. Human-readable lines come first; the last line of standard
// output is the JSON result. The exit code is 1 when any correctness
// check failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// processStart stamps the start of the first set-up round.
var processStart = time.Now()

// workloadNames lists the workloads, the workloads of BENCHMARK.json.
var workloadNames = []string{"sim-irregular", "sim-cluster", "serve-mix"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed for the program order and the request mix")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the trace file")
	goldens := fs.String("goldens", filepath.Join("scripts", "bench_goldens.json"), "committed cycle counts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fs.Usage()
		return 2
	}
	w, err := lookup(*workload, *goldens)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	ctx := context.Background()
	dur := time.Duration(*seconds * float64(time.Second))
	rep := &report{workload: *workload}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
		err = benchLayers(ctx, rep, w.layerProgs, w.mix, *seed, dur, *out)
	} else if w.sim != nil {
		err = benchSim(ctx, rep, w.sim, *seed, dur)
	} else {
		err = benchServe(ctx, rep, w.mix, *seed, dur)
	}
	if err != nil {
		rep.attempted++
		rep.failf("%v", err)
	}
	if *trace == 0 {
		rss, err := peakRSSMiB()
		if err != nil {
			rep.problemf("reading peak RSS: %v", err)
		}
		rep.add(metric{name: "rss_mb", unit: "MiB", value: rss})
	}
	rep.add(ratio("fail_frac", "ratio", float64(rep.failed), float64(rep.attempted), "failed / attempted operations", true))
	if err := rep.write(stdout, want); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// workload is a resolved workload: the simulation programs it times (nil
// for the service mix), the programs its traced run puts through the
// layer loop, and the service mix of its traced run.
type workload struct {
	sim        []*program
	layerProgs []*program
	mix        *mix
}

// lookup resolves a workload by name and attaches the cycle goldens.
func lookup(name, goldens string) (*workload, error) {
	tables := map[string][]scaled{"sim-irregular": irregularTable, "sim-cluster": clusterTable}
	raws, err := rawPrograms()
	if err != nil {
		return nil, err
	}
	w := &workload{}
	if table, ok := tables[name]; ok {
		if w.sim, err = resolve(table); err != nil {
			return nil, err
		}
		if err := loadGoldens(goldens, w.sim); err != nil {
			return nil, err
		}
		w.layerProgs = w.sim
		// The traced run serves the workload's own programs, as hot keys
		// and as misses.
		var served []*program
		for _, p := range w.sim {
			if p.served {
				served = append(served, p)
			}
		}
		w.mix = &mix{named: served, raw: raws}
	} else if name == "serve-mix" {
		rec, err := recordedPrograms()
		if err != nil {
			return nil, err
		}
		w.mix = &mix{named: rec, raw: raws}
		w.layerProgs = w.mix.programs()
	} else {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}
