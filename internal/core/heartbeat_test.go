// Heartbeat lifecycle audit: SetHeartbeat callbacks fire only from
// inside the run loop — they start no goroutines, report monotone
// progress, stop the moment RunContext returns, and re-arm with every
// run. A long-lived server (sdserve) leans on this: a heartbeat left
// ticking after a request completes would be a per-request leak.
package core_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"softbrain/internal/core"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/machsuite"
)

func TestHeartbeatStopsAfterRun(t *testing.T) {
	inst, cfg := buildGemm(t)
	before := runtime.NumGoroutine()

	cl := newLone(t, inst, cfg)
	var fired atomic.Int64
	var lastCycle atomic.Uint64
	cl.SetHeartbeat(0, func(r core.ProgressReport) {
		fired.Add(1)
		if prev := lastCycle.Load(); r.Cycle < prev {
			t.Errorf("heartbeat cycle went backwards: %d after %d", r.Cycle, prev)
		}
		lastCycle.Store(r.Cycle)
	})
	stats, err := cl.RunContext(context.Background(), inst.Progs)
	if err != nil {
		t.Fatal(err)
	}

	during := fired.Load()
	if during == 0 {
		t.Fatalf("heartbeat never fired over a %d-cycle run", stats.Cycles)
	}
	if last := lastCycle.Load(); last >= stats.Cycles {
		t.Errorf("heartbeat reported cycle %d at or past the final count %d", last, stats.Cycles)
	}

	// The callback must go quiet with the run loop: no timer, ticker,
	// or goroutine keeps it alive. Give any such machinery ample host
	// time to betray itself.
	time.Sleep(50 * time.Millisecond)
	if after := fired.Load(); after != during {
		t.Errorf("heartbeat fired %d more time(s) after Run returned", after-during)
	}
	waitGoroutines(t, before)
}

// TestHeartbeatStopsAfterCanceledRun is the same audit on the error
// path: a run torn down by cancellation must silence the heartbeat
// just as a completed one does.
func TestHeartbeatStopsAfterCanceledRun(t *testing.T) {
	inst, cfg := buildGemm(t)
	before := runtime.NumGoroutine()

	cl := newLone(t, inst, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Int64
	cl.SetHeartbeat(0, func(r core.ProgressReport) {
		fired.Add(1)
		cancel()
	})
	if _, err := cl.RunContext(ctx, inst.Progs); err == nil {
		t.Fatal("canceled run returned nil error")
	}

	during := fired.Load()
	time.Sleep(50 * time.Millisecond)
	if after := fired.Load(); after != during {
		t.Errorf("heartbeat fired %d more time(s) after canceled Run returned", after-during)
	}
	waitGoroutines(t, before)
}

// TestClusterHeartbeatStopsAfterRun is the same audit on a heartbeat
// reporting across the eight units of a DNN layer: it too must go quiet
// when RunContext returns.
func TestClusterHeartbeatStopsAfterRun(t *testing.T) {
	cfg := dnn.Config()
	inst, err := dnn.Layers()[0].Build(cfg, dnn.Units)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	cl, err := core.NewCluster(cfg, inst.Units())
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	cl.SetHeartbeat(0, func(r core.ProgressReport) { fired.Add(1) })
	if inst.Init != nil {
		inst.Init(cl.Mem)
	}
	if _, err := cl.RunContext(context.Background(), inst.Progs); err != nil {
		t.Fatal(err)
	}

	during := fired.Load()
	if during == 0 {
		t.Fatal("cluster heartbeat never fired")
	}
	time.Sleep(50 * time.Millisecond)
	if after := fired.Load(); after != during {
		t.Errorf("cluster heartbeat fired %d more time(s) after Run returned", after-during)
	}
	waitGoroutines(t, before)
}

// TestHeartbeatRearmsPerRun: every run's first stride check only arms
// the heartbeat, on a reused cluster as on a fresh one. Viterbi at
// scale 1 makes one stride check per run, so neither its cold run nor
// its warm run on the same cluster may report.
func TestHeartbeatRearmsPerRun(t *testing.T) {
	e, err := machsuite.Find("viterbi")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	inst, err := e.Build(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster(cfg, inst.Units())
	if err != nil {
		t.Fatal(err)
	}
	var fired int
	cl.SetHeartbeat(0, func(core.ProgressReport) { fired++ })
	for _, run := range []string{"cold", "warm"} {
		fired = 0
		if inst.Init != nil {
			inst.Init(cl.Mem)
		}
		if _, err := cl.RunContext(context.Background(), inst.Progs); err != nil {
			t.Fatalf("%s run: %v", run, err)
		}
		if fired != 0 {
			t.Errorf("%s run reported %d time(s); a run of fewer than two stride checks reports nothing", run, fired)
		}
	}
}
