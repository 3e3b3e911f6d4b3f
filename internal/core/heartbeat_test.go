// Heartbeat lifecycle audit: SetHeartbeat callbacks fire only from
// inside the run loop — they start no goroutines, report monotone
// progress, and stop the moment Run returns. A long-lived server
// (sdserve) leans on this: a heartbeat left ticking after a request
// completes would be a per-request leak.
package core_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"softbrain/internal/core"
)

func TestHeartbeatStopsAfterRun(t *testing.T) {
	inst, cfg := buildGemm(t)
	before := runtime.NumGoroutine()

	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	var lastCycle atomic.Uint64
	m.SetHeartbeat(0, func(r core.ProgressReport) {
		fired.Add(1)
		if prev := lastCycle.Load(); r.Cycle < prev {
			t.Errorf("heartbeat cycle went backwards: %d after %d", r.Cycle, prev)
		}
		lastCycle.Store(r.Cycle)
	})
	if inst.Init != nil {
		inst.Init(m.Sys.Mem)
	}
	stats, err := m.RunContext(context.Background(), inst.Progs[0])
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

	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Int64
	m.SetHeartbeat(0, func(r core.ProgressReport) {
		fired.Add(1)
		cancel()
	})
	if inst.Init != nil {
		inst.Init(m.Sys.Mem)
	}
	if _, err := m.RunContext(ctx, inst.Progs[0]); err == nil {
		t.Fatal("canceled run returned nil error")
	}

	during := fired.Load()
	time.Sleep(50 * time.Millisecond)
	if after := fired.Load(); after != during {
		t.Errorf("heartbeat fired %d more time(s) after canceled Run returned", after-during)
	}
	waitGoroutines(t, before)
}

// TestClusterHeartbeatStopsAfterRun is the same audit on the
// cluster-level heartbeat: it too must go quiet when RunContext
// returns.
func TestClusterHeartbeatStopsAfterRun(t *testing.T) {
	inst, cfg := buildGemm(t)
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
