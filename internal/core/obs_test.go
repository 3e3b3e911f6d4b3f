// Observability equivalence: the metrics layer (internal/obs) is
// strictly read-only — enabling it never changes the simulation, and
// its stall attribution must obey two hard properties. Conservation:
// every component's cause counts sum exactly to the elapsed cycles, on
// every workload and generated program. Invariance: the metrics dump
// is byte-identical with idle skip-ahead off and on, for single
// machines and multi-unit clusters alike.
package core_test

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/fix"
	"softbrain/internal/obs"
	"softbrain/internal/progen"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/machsuite"
)

// obsBuilds is the workload matrix the metrics tests sweep: the full
// MachSuite set plus two DNN layers on the 8-unit cluster.
func obsBuilds() []struct {
	name string
	inst func(cfg core.Config) (*workloads.Instance, error)
	cfg  core.Config
} {
	type build = struct {
		name string
		inst func(cfg core.Config) (*workloads.Instance, error)
		cfg  core.Config
	}
	var builds []build
	mcfg := core.DefaultConfig()
	for _, e := range machsuite.All() {
		e := e
		builds = append(builds, build{e.Name, func(cfg core.Config) (*workloads.Instance, error) {
			return e.Build(cfg, 2)
		}, mcfg})
	}
	dcfg := dnn.Config()
	for _, l := range dnn.Layers()[:2] {
		l := l
		builds = append(builds, build{l.Name, func(cfg core.Config) (*workloads.Instance, error) {
			return l.Build(cfg, dnn.Units)
		}, dcfg})
	}
	return builds
}

// TestMetricsWorkloads runs every workload with metrics attached,
// twice — skipping off and on — and demands (a) the conservation
// invariant on both dumps, (b) byte-identical dump JSON between the
// two runs, and (c) unchanged cycle counts versus a plain run (metrics
// must not perturb the simulation). Attaching metrics must not change
// the scheduling either: (d) the default-mode metrics run reports the
// plain run's scheduler counters and per-component ticks.
func TestMetricsWorkloads(t *testing.T) {
	for _, b := range obsBuilds() {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			run := func(noSkip bool) (*core.Cluster, *core.Stats, []byte) {
				cfg := b.cfg
				cfg.Sched = schedFor(noSkip)
				inst, err := b.inst(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cl, stats, err := inst.Run(context.Background(), cfg, workloads.RunOpts{
					Prepare: func(cl *core.Cluster) { cl.EnableMetrics(obs.Options{}) },
				})
				if err != nil {
					t.Fatal(err)
				}
				dump := cl.MetricsDump()
				if err := obs.CheckConservation(dump); err != nil {
					t.Fatalf("noSkip=%v: %v", noSkip, err)
				}
				data, err := dump.MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				return cl, stats, data
			}
			_, sOff, dOff := run(true)
			clOn, sOn, dOn := run(false)
			if !bytes.Equal(dOff, dOn) {
				t.Errorf("metrics dump differs with skip-ahead:\noff:\n%s\non:\n%s", dOff, dOn)
			}
			if sOff.Cycles != sOn.Cycles {
				t.Errorf("cycles differ with skip-ahead: %d vs %d", sOff.Cycles, sOn.Cycles)
			}
			inst, err := b.inst(b.cfg)
			if err != nil {
				t.Fatal(err)
			}
			cl, plain, err := inst.Run(context.Background(), b.cfg, workloads.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if plain.Cycles != sOn.Cycles {
				t.Errorf("enabling metrics changed the simulation: %d cycles plain, %d with metrics",
					plain.Cycles, sOn.Cycles)
			}
			if got, want := clOn.SchedStats(), cl.SchedStats(); got != want {
				t.Errorf("enabling metrics changed the scheduling:\n  plain:   %+v\n  metrics: %+v", want, got)
			}
			if got, want := clOn.SchedTickBy(), cl.SchedTickBy(); !reflect.DeepEqual(got, want) {
				t.Errorf("enabling metrics changed the ticks per component: plain %v, metrics %v", want, got)
			}
		})
	}
}

// TestMetricsClusterParSeq runs the DNN layers on the 8-unit cluster
// per-cycle (SchedPerCycle) and with default scheduling, metrics and
// slice recording attached: the dumps must be byte-identical, per unit
// and in total, and so must the Perfetto exports of every unit's stall
// slices, so cluster-level frozen jumps replay the slice timeline
// exactly, not just the cause counts. (The name dates from when the
// comparison was between a parallel and a sequential cluster
// scheduler.)
func TestMetricsClusterParSeq(t *testing.T) {
	cfg := dnn.Config()
	for _, l := range dnn.Layers()[:2] {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			t.Parallel()
			inst, err := l.Build(cfg, dnn.Units)
			if err != nil {
				t.Fatal(err)
			}
			run := func(noSkip bool) (dump, trace []byte) {
				c := cfg
				c.Sched = schedFor(noSkip)
				cl, err := core.NewCluster(c, len(inst.Progs))
				if err != nil {
					t.Fatal(err)
				}
				cl.EnableMetrics(obs.Options{Slices: obs.DefaultSlices})
				if inst.Init != nil {
					inst.Init(cl.Mem)
				}
				stats, err := cl.RunContext(context.Background(), inst.Progs)
				if err != nil {
					t.Fatalf("noSkip=%v: %v", noSkip, err)
				}
				d := cl.MetricsDump()
				if err := obs.CheckConservation(d); err != nil {
					t.Fatalf("noSkip=%v: %v", noSkip, err)
				}
				if dump, err = d.MarshalIndent(); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := obs.WriteTrace(&buf, cl.TraceInputs(stats.Cycles)); err != nil {
					t.Fatal(err)
				}
				if err := obs.ValidateTrace(buf.Bytes()); err != nil {
					t.Fatalf("noSkip=%v: %v", noSkip, err)
				}
				return dump, buf.Bytes()
			}
			refDump, refTrace := run(true)
			dump, trace := run(false)
			if !bytes.Equal(refDump, dump) {
				t.Errorf("metrics dump differs between schedules:\nper-cycle:\n%s\ndefault:\n%s", refDump, dump)
			}
			if !bytes.Equal(refTrace, trace) {
				t.Errorf("stall-slice trace differs between schedules (%d vs %d bytes)", len(refTrace), len(trace))
			}
		})
	}
}

// TestMetricsProgen sweeps generated programs: conservation and
// skip-invariance must hold on arbitrary command mixes, not just the
// curated workloads. Slice recording is on, so the run-length encoder
// is exercised under every classification path.
func TestMetricsProgen(t *testing.T) {
	cfg := core.DefaultConfig()
	for seed := int64(0); seed < 10; seed++ {
		p, ports, err := progen.Addpair(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, c := range progen.Commands(rng, ports) {
			p.Emit(c)
		}
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
		fixed, _, err := fix.Fix(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func(noSkip bool) []byte {
			c := cfg
			c.Sched = schedFor(noSkip)
			cl, err := core.NewCluster(c, 1)
			if err != nil {
				t.Fatal(err)
			}
			cl.EnableMetrics(obs.Options{Slices: obs.DefaultSlices})
			line := make([]byte, 64)
			irng := rand.New(rand.NewSource(seed + 1000))
			for _, base := range progen.MemPools {
				irng.Read(line)
				cl.Mem.Write(base, line)
			}
			if _, err := cl.RunContext(context.Background(), []*core.Program{fixed}); err != nil {
				t.Fatalf("seed %d (noSkip=%v): %v", seed, noSkip, err)
			}
			dump := cl.MetricsDump()
			if err := obs.CheckConservation(dump); err != nil {
				t.Fatalf("seed %d (noSkip=%v): %v", seed, noSkip, err)
			}
			data, err := dump.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		off, on := run(true), run(false)
		if !bytes.Equal(off, on) {
			t.Errorf("seed %d: metrics dump differs with skip-ahead:\noff:\n%s\non:\n%s", seed, off, on)
		}
	}
}

// TestMetricsTraceExport runs a workload with spans and slices
// recorded and validates the Perfetto export against the trace-event
// contract.
func TestMetricsTraceExport(t *testing.T) {
	cfg := core.DefaultConfig()
	e, err := machsuite.Find("gemm")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := e.Build(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl.EnableMetrics(obs.Options{Slices: obs.DefaultSlices})
	if inst.Init != nil {
		inst.Init(cl.Mem)
	}
	stats, err := cl.RunContext(context.Background(), inst.Progs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, cl.TraceInputs(stats.Cycles)); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("export failed its own validator: %v", err)
	}
}

// TestUntracedRecordsNoSlices: a registry built with obs.Options{}
// keeps counts only — no stall slices, no stream lifetimes — and its
// dump is byte-identical to the same run traced with DefaultSlices.
func TestUntracedRecordsNoSlices(t *testing.T) {
	cfg := core.DefaultConfig()
	e, err := machsuite.Find("gemm")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := e.Build(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts obs.Options) (obs.TraceInput, []byte) {
		cl, stats, err := inst.Run(context.Background(), cfg, workloads.RunOpts{
			Prepare: func(cl *core.Cluster) { cl.EnableMetrics(opts) },
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := cl.MetricsDump().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return cl.TraceInputs(stats.Cycles)[0], data
	}
	in, plain := run(obs.Options{})
	if len(in.Spans) != 0 {
		t.Errorf("untraced run recorded %d stream lifetimes", len(in.Spans))
	}
	for _, a := range in.Attrs {
		if s, truncated := a.Slices(); len(s) != 0 || truncated {
			t.Errorf("untraced run recorded %d %s slices", len(s), a.Name())
		}
	}
	tin, traced := run(obs.Options{Slices: obs.DefaultSlices})
	if len(tin.Spans) == 0 {
		t.Error("traced run recorded no stream lifetimes")
	}
	if !bytes.Equal(plain, traced) {
		t.Errorf("metrics dump depends on slice recording:\nuntraced:\n%s\ntraced:\n%s", plain, traced)
	}
}

// TestWarmTraceLifetimes: a warm traced run reports only its own
// streams — the cold run's commands, numbered by the second run — and
// its Perfetto export passes the validator. Warm caches reorder issue,
// so the commands are compared as a set.
func TestWarmTraceLifetimes(t *testing.T) {
	cfg := core.DefaultConfig()
	e, err := machsuite.Find("gemm")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := e.Build(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(warm bool) obs.TraceInput {
		cl, stats, err := inst.Run(context.Background(), cfg, workloads.RunOpts{
			Warm:    warm,
			Prepare: func(cl *core.Cluster) { cl.EnableMetrics(obs.Options{Slices: obs.DefaultSlices}) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl.TraceInputs(stats.Cycles)[0]
	}
	cold, warm := run(false).Spans, run(true)
	n := len(cold)
	if n == 0 || len(warm.Spans) != n {
		t.Fatalf("warm run recorded %d stream lifetimes, cold run %d", len(warm.Spans), n)
	}
	var coldLabels, warmLabels []string
	for i, s := range warm.Spans {
		if s.ID != cold[i].ID+n {
			t.Fatalf("warm stream %d is #%d, want #%d", i, s.ID, cold[i].ID+n)
		}
		coldLabels, warmLabels = append(coldLabels, cold[i].Label), append(warmLabels, s.Label)
	}
	sort.Strings(coldLabels)
	sort.Strings(warmLabels)
	if !reflect.DeepEqual(coldLabels, warmLabels) {
		t.Error("warm run issued other commands than the cold run")
	}
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, []obs.TraceInput{warm}); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("warm trace failed the validator: %v", err)
	}
}

// TestHeartbeat: the run-loop heartbeat must fire for a long-enough
// run with a zero interval and report monotonically advancing cycles.
func TestHeartbeat(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Sched = core.SchedPerCycle // every cycle ticked, so the stride check runs often
	e, err := machsuite.Find("gemm")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := e.Build(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster(cfg, len(inst.Progs))
	if err != nil {
		t.Fatal(err)
	}
	cl.EnableMetrics(obs.Options{})
	var reports []core.ProgressReport
	cl.SetHeartbeat(0, func(r core.ProgressReport) { reports = append(reports, r) })
	if inst.Init != nil {
		inst.Init(cl.Mem)
	}
	if _, err := cl.RunContext(context.Background(), inst.Progs); err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("heartbeat never fired on a ticked multi-thousand-cycle run")
	}
	for i := 1; i < len(reports); i++ {
		if reports[i].Cycle <= reports[i-1].Cycle {
			t.Errorf("heartbeat cycles not advancing: %d then %d", reports[i-1].Cycle, reports[i].Cycle)
		}
	}
	if reports[len(reports)-1].StallMix == "" {
		t.Error("heartbeat with metrics enabled reported an empty stall mix")
	}
}
