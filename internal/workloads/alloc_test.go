package workloads_test

import (
	"reflect"
	"sync"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/obs"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/machsuite"
)

// TestWarmRunAllocsFlat checks that a run's per-command path allocates
// nothing: stream tables recycle their entries, scoreboards are arrays
// and a program is sealed once, so a warm run on the same cluster
// allocates only a fixed amount (configuration decode, per-run
// bookkeeping) however long its trace is. Scale 4 issues several times
// the commands of scale 1 yet may allocate only allocSlack more.
func TestWarmRunAllocsFlat(t *testing.T) {
	const allocSlack = 64
	cfg := core.DefaultConfig()
	for _, name := range []string{"gemm", "viterbi", "stencil3d"} {
		e, err := machsuite.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		var allocs []float64
		for _, scale := range []int{1, 2, 4} {
			inst, err := e.Build(cfg, scale)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := core.NewCluster(cfg, inst.Units())
			if err != nil {
				t.Fatal(err)
			}
			inst.Init(cl.Mem)
			// AllocsPerRun's untimed warm-up call is the cold run; the
			// measured call is the warm second run.
			allocs = append(allocs, testing.AllocsPerRun(1, func() {
				if _, err := cl.RunContext(ctx, inst.Progs); err != nil {
					t.Fatal(err)
				}
			}))
			if err := inst.Check(cl.Mem); err != nil {
				t.Fatalf("%s scale %d: %v", name, scale, err)
			}
		}
		t.Logf("%s warm-run allocations at scales 1/2/4: %v", name, allocs)
		if allocs[2] > allocs[0]+allocSlack {
			t.Errorf("%s: warm run allocates %v at scale 4 vs %v at scale 1 (slack %d)",
				name, allocs[2], allocs[0], allocSlack)
		}
	}
}

// TestMetricsRunAllocsFlat checks that stall attribution allocates
// nothing per cycle: a warm gemm run with metrics on allocates at most
// metricsSlack more than the same run with metrics off (the registry's
// per-run bookkeeping), at scale 4 as at scale 1, however many stalled
// cycles it classifies.
func TestMetricsRunAllocsFlat(t *testing.T) {
	const metricsSlack = 64
	cfg := core.DefaultConfig()
	e, err := machsuite.Find("gemm")
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []int{1, 4} {
		inst, err := e.Build(cfg, scale)
		if err != nil {
			t.Fatal(err)
		}
		var allocs [2]float64
		for i, metrics := range []bool{false, true} {
			cl, err := core.NewCluster(cfg, inst.Units())
			if err != nil {
				t.Fatal(err)
			}
			if metrics {
				cl.EnableMetrics(obs.Options{})
			}
			inst.Init(cl.Mem)
			allocs[i] = testing.AllocsPerRun(1, func() {
				if _, err := cl.RunContext(ctx, inst.Progs); err != nil {
					t.Fatal(err)
				}
			})
			if err := inst.Check(cl.Mem); err != nil {
				t.Fatalf("scale %d: %v", scale, err)
			}
		}
		t.Logf("gemm scale %d warm-run allocations: metrics off %v, on %v", scale, allocs[0], allocs[1])
		if allocs[1] > allocs[0]+metricsSlack {
			t.Errorf("gemm scale %d: a metrics run allocates %v, %v without metrics (slack %d)",
				scale, allocs[1], allocs[0], metricsSlack)
		}
	}
}

// TestSharedProgramConcurrentRuns runs one built instance — the same
// *core.Program values — on two clusters from two goroutines at once.
// Load seals a program once and otherwise only reads it, so the runs
// are race-free (go test -race) and both verify with equal statistics.
func TestSharedProgramConcurrentRuns(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, name := range []string{"gemm", "bfs"} {
		e, err := machsuite.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := e.Build(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		stats := make([]*core.Stats, 2)
		errs := make([]error, 2)
		for i := range stats {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, stats[i], errs[i] = inst.Run(ctx, cfg, workloads.RunOpts{Warm: true})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s run %d: %v", name, i, err)
			}
		}
		if !reflect.DeepEqual(stats[0], stats[1]) {
			t.Errorf("%s: concurrent runs differ:\n  %+v\n  %+v", name, stats[0], stats[1])
		}
	}
}
