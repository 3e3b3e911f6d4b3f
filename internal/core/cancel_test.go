// Cancellation-semantics audit for the context-bounded run path
// (Cluster.RunContext): a canceled run returns the typed
// *CanceledError, leaves no goroutines behind, and abandoning a
// cluster mid-run has no effect on later runs — a fresh cluster
// re-running the same program is byte-identical to one that was never
// interrupted.
package core_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"softbrain/internal/core"
	"softbrain/internal/mem"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/machsuite"
)

// buildGemm returns the gemm instance at a scale large enough to span
// many heartbeat strides (the goldens pin scale 3 at ~45k cycles), so
// a mid-run cancellation has room to land.
func buildGemm(t *testing.T) (*workloads.Instance, core.Config) {
	t.Helper()
	e, err := machsuite.Find("gemm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	inst, err := e.Build(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	return inst, cfg
}

// newLone builds a one-unit cluster for inst, its memory initialized.
func newLone(t *testing.T, inst *workloads.Instance, cfg core.Config) *core.Cluster {
	t.Helper()
	cl, err := core.NewCluster(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Init != nil {
		inst.Init(cl.Mem)
	}
	return cl
}

// runMachine executes one program on a fresh one-unit cluster and
// returns the stats and the cluster's memory for byte comparison.
func runMachine(t *testing.T, ctx context.Context, inst *workloads.Instance, cfg core.Config) (*core.Stats, *mem.Memory, error) {
	t.Helper()
	cl := newLone(t, inst, cfg)
	stats, err := cl.RunContext(ctx, inst.Progs[:1])
	return stats, cl.Mem, err
}

// cancelMidRun builds a one-unit cluster for inst and cancels its
// context from the heartbeat callback, which only fires once the run is
// genuinely underway — a deterministic mid-run cancellation with no
// sleeps.
func cancelMidRun(t *testing.T, inst *workloads.Instance, cfg core.Config, cause error) error {
	t.Helper()
	cl := newLone(t, inst, cfg)
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	cl.SetHeartbeat(0, func(r core.ProgressReport) {
		if r.Cycle > 0 {
			cancel(cause)
		}
	})
	_, err := cl.RunContext(ctx, inst.Progs[:1])
	return err
}

func TestRunContextCancelTyped(t *testing.T) {
	inst, cfg := buildGemm(t)
	cause := errors.New("test: wall-clock budget spent")
	err := cancelMidRun(t, inst, cfg, cause)
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	var ce *core.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("canceled run returned %T (%v), want *core.CanceledError", err, err)
	}
	if ce.Cycle == 0 {
		t.Error("mid-run cancellation reported cycle 0")
	}
	// The cause installed at cancellation time must survive unwrapping:
	// CanceledError carries context.Cause, so callers match on the
	// specific cause (sdserve's deadline/drain sentinels), not just the
	// generic context.Canceled.
	if !errors.Is(err, cause) {
		t.Errorf("errors.Is(err, cause) = false for %v", err)
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	inst, cfg := buildGemm(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := runMachine(t, ctx, inst, cfg)
	var ce *core.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("pre-canceled run returned %T (%v), want *core.CanceledError", err, err)
	}
	if ce.Cycle != 0 {
		t.Errorf("pre-canceled run reported cycle %d, want 0", ce.Cycle)
	}
}

func TestRunContextDeadline(t *testing.T) {
	inst, cfg := buildGemm(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, _, err := runMachine(t, ctx, inst, cfg)
	var ce *core.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("deadline run returned %T (%v), want *core.CanceledError", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false for %v", err)
	}
}

// TestCancelRerunByteIdentical is the abandonment contract: canceling
// one cluster mid-run must not perturb a later run on a fresh cluster.
// The re-run's cycle count, full memory image, and golden verification
// must match an uninterrupted baseline.
func TestCancelRerunByteIdentical(t *testing.T) {
	inst, cfg := buildGemm(t)

	baseStats, baseMem, err := runMachine(t, context.Background(), inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cancelMidRun(t, inst, cfg, errors.New("test: abandon")); err == nil {
		t.Fatal("mid-run cancellation did not cancel")
	}
	reStats, reMem, err := runMachine(t, context.Background(), inst, cfg)
	if err != nil {
		t.Fatalf("re-run after cancellation failed: %v", err)
	}

	if reStats.Cycles != baseStats.Cycles {
		t.Errorf("re-run took %d cycles, uninterrupted baseline %d", reStats.Cycles, baseStats.Cycles)
	}
	if *reStats != *baseStats {
		t.Errorf("re-run stats diverged from baseline:\n got %+v\nwant %+v", *reStats, *baseStats)
	}
	if addr, diff := reMem.FirstDiff(baseMem); diff {
		t.Errorf("re-run memory differs from baseline at 0x%x", addr)
	}
	if inst.Check != nil {
		if err := inst.Check(reMem); err != nil {
			t.Errorf("re-run failed golden verification: %v", err)
		}
	}
}

// TestClusterCancelNoGoroutineLeak cancels an 8-unit cluster run and
// checks both the typed error and that the run leaves no goroutine
// behind.
func TestClusterCancelNoGoroutineLeak(t *testing.T) {
	l := dnn.Layers()[0]
	cfg := dnn.Config()
	inst, err := l.Build(cfg, dnn.Units)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	cl, err := core.NewCluster(cfg, inst.Units())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	cl.SetHeartbeat(0, func(r core.ProgressReport) {
		if r.Cycle > 0 {
			cancel(errors.New("test: cluster abandon"))
		}
	})
	if inst.Init != nil {
		inst.Init(cl.Mem)
	}
	_, err = cl.RunContext(ctx, inst.Progs)
	var ce *core.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("canceled cluster run returned %T (%v), want *core.CanceledError", err, err)
	}

	waitGoroutines(t, before)
}

// waitGoroutines polls until the goroutine count returns to the
// baseline (scheduler teardown is asynchronous), failing with a full
// stack dump if it never does.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines leaked: %d before, %d after\n%s",
		baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}
