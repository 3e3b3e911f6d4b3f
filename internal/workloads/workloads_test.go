package workloads_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/mem"
	"softbrain/internal/obs"
	"softbrain/internal/progen"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/catalog"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/machsuite"
)

var ctx = context.Background()

// gemm builds the small MachSuite gemm instance on the default unit.
func gemm(t *testing.T) (*workloads.Instance, core.Config) {
	t.Helper()
	e, err := machsuite.Find("gemm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	inst, err := e.Build(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return inst, cfg
}

func TestRunPrepareBeforeInit(t *testing.T) {
	inst, cfg := gemm(t)
	var order []string
	var prepared *core.Cluster
	init := inst.Init
	inst.Init = func(m *mem.Memory) {
		order = append(order, "init")
		init(m)
	}
	cl, _, err := inst.Run(ctx, cfg, workloads.RunOpts{Prepare: func(cl *core.Cluster) {
		order = append(order, "prepare")
		prepared = cl
	}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"prepare", "init"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("call order %v, want %v", order, want)
	}
	if prepared != cl {
		t.Fatal("Prepare saw a different cluster than Run returned")
	}
}

// TestWarmReportsSecondRun checks that Warm reports the cache-warm
// second run: fewer cycles and misses than the cold run, the same work.
func TestWarmReportsSecondRun(t *testing.T) {
	inst, cfg := gemm(t)
	_, cold, err := inst.Run(ctx, cfg, workloads.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cl, warm, err := inst.Run(ctx, cfg, workloads.RunOpts{Warm: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cycles >= cold.Cycles || warm.CacheMisses >= cold.CacheMisses {
		t.Fatalf("warm run %d cycles / %d misses, cold %d / %d: not the cache-warm run",
			warm.Cycles, warm.CacheMisses, cold.Cycles, cold.CacheMisses)
	}
	if warm.Instances != cold.Instances {
		t.Fatalf("warm run reports %d instances, cold %d", warm.Instances, cold.Instances)
	}
	if got := cl.UnitStats()[0].Cycles; got != warm.Cycles {
		t.Fatalf("cluster unit stats show %d cycles, Run reported %d", got, warm.Cycles)
	}
	if s := cl.SchedStats(); s.Cycles+s.Skipped != warm.Cycles {
		t.Fatalf("scheduler counted %d stepped + %d jumped cycles for a %d-cycle run", s.Cycles, s.Skipped, warm.Cycles)
	}
}

// TestWarmCountsOneRun is the per-run counter contract on a reused
// cluster: a warm run does the cold run's work, so its work counters
// equal the cold run's, and no engine is busy for more cycles than the
// run took. It covers every MachSuite workload and one DNN layer.
func TestWarmCountsOneRun(t *testing.T) {
	type build struct {
		name string
		inst func() (*workloads.Instance, error)
		cfg  core.Config
	}
	var builds []build
	mcfg := core.DefaultConfig()
	for _, e := range machsuite.All() {
		builds = append(builds, build{e.Name, func() (*workloads.Instance, error) { return e.Build(mcfg, 2) }, mcfg})
	}
	l := dnn.Layers()[0]
	dcfg := dnn.Config()
	builds = append(builds, build{l.Name, func() (*workloads.Instance, error) { return l.Build(dcfg, dnn.Units) }, dcfg})

	// MemLines is left out: how the engines group a stream's accesses
	// into line requests depends on timing.
	work := func(s *core.Stats) [9]uint64 {
		return [9]uint64{s.Instances, s.FUOps, s.Commands, s.CoreInstrs, s.MemBytesRead, s.MemBytesWritten,
			s.ScratchBytesRead, s.ScratchBytesWrit, s.RecurrenceBytes}
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			inst, err := b.inst()
			if err != nil {
				t.Fatal(err)
			}
			_, cold, err := inst.Run(ctx, b.cfg, workloads.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			cl, warm, err := inst.Run(ctx, b.cfg, workloads.RunOpts{Warm: true})
			if err != nil {
				t.Fatal(err)
			}
			if work(warm) != work(cold) {
				t.Errorf("warm work counters %v, cold %v", work(warm), work(cold))
			}
			for u, s := range cl.UnitStats() {
				for name, busy := range map[string]uint64{"mse": s.MSEBusy, "sse": s.SSEBusy, "rse": s.RSEBusy} {
					if busy > s.Cycles {
						t.Errorf("unit %d %s busy %d cycles of %d", u, name, busy, s.Cycles)
					}
				}
			}
		})
	}
}

// TestWarmMetricsConserve attaches metrics to a warm run: the dump
// describes the reported run alone, so conservation holds against its
// cycle count.
func TestWarmMetricsConserve(t *testing.T) {
	inst, cfg := gemm(t)
	cl, warm, err := inst.Run(ctx, cfg, workloads.RunOpts{
		Warm:    true,
		Prepare: func(cl *core.Cluster) { cl.EnableMetrics(obs.Options{Slices: obs.DefaultSlices}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	dump := cl.MetricsDump()
	if err := obs.CheckConservation(dump); err != nil {
		t.Fatal(err)
	}
	if dump.Total.Cycles != warm.Cycles {
		t.Fatalf("dump covers %d cycles, the warm run %d", dump.Total.Cycles, warm.Cycles)
	}
	var drained uint64
	for _, d := range dump.Units[0].BarrierDrains {
		drained += d.Cycles
	}
	if drained != warm.BarrierCycles {
		t.Fatalf("barrier drains sum to %d cycles, the warm run's barriers held %d", drained, warm.BarrierCycles)
	}
}

// TestWarmVerifiesEveryWorkload runs every catalog workload warm at
// scale 1: the second run must verify too, including the programs that
// update their inputs in place (fft, backprop).
func TestWarmVerifiesEveryWorkload(t *testing.T) {
	for _, e := range catalog.All() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			cfg := e.Config()
			inst, err := e.Build(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := inst.Run(ctx, cfg, workloads.RunOpts{Warm: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunMismatch(t *testing.T) {
	inst, cfg := gemm(t)
	inst.Init = nil // zero inputs: the golden model's output cannot match
	cl, stats, err := inst.Run(ctx, cfg, workloads.RunOpts{})
	var mm *workloads.MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("Run = %v, want a *MismatchError", err)
	}
	if mm.Name != inst.Name || mm.Err == nil {
		t.Fatalf("mismatch error %+v", mm)
	}
	if cl == nil || stats == nil || stats.Cycles == 0 {
		t.Fatalf("mismatch returned cluster %v, stats %+v; want the completed run's", cl, stats)
	}
}

// TestRunRawProgram runs the shape a raw program submission takes: one
// program, no Init, no Check.
func TestRunRawProgram(t *testing.T) {
	cfg := core.DefaultConfig()
	p, ports, err := progen.Addpair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range progen.Commands(rand.New(rand.NewSource(1)), ports) {
		p.Emit(cmd)
	}
	inst := &workloads.Instance{Name: p.Name, Progs: []*core.Program{p}}
	cl, stats, err := inst.Run(ctx, cfg, workloads.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Units) != 1 || stats.Cycles == 0 {
		t.Fatalf("raw run: %d units, %d cycles", len(cl.Units), stats.Cycles)
	}
}

func TestRunNoPrograms(t *testing.T) {
	inst := &workloads.Instance{Name: "empty"}
	cl, stats, err := inst.Run(ctx, core.DefaultConfig(), workloads.RunOpts{})
	if err == nil || cl != nil || stats != nil {
		t.Fatalf("Run(no programs) = %v, %v, %v; want an error alone", cl, stats, err)
	}
}
