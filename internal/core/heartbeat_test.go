// Heartbeat lifecycle audit: SetHeartbeat callbacks fire only from
// inside the run loop — they start no goroutines, report monotone
// progress, stop the moment RunContext returns, and re-arm with every
// run. A long-lived server (sdserve) leans on this: a heartbeat left
// ticking after a request completes would be a per-request leak.
package core_test

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"softbrain/internal/core"
	"softbrain/internal/isa"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/catalog"
	"softbrain/internal/workloads/dnn"
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
// the heartbeat, on a reused cluster as on a fresh one. Each case runs a
// host-delay program cold and then warm on one cluster, and both runs
// must deliver the same number of reports. One 6,000-cycle delay runs
// 6,002 cycles: one stride check per run, which only arms, so no
// report. Two 5,000-cycle delays run 10,002 cycles: two checks, so
// exactly one report per run. (One 10,000-cycle delay would jump past
// two stride multiples in one loop iteration and check once.)
func TestHeartbeatRearmsPerRun(t *testing.T) {
	for _, c := range []struct {
		name    string
		delays  []uint64
		cycles  uint64
		reports int
	}{
		{"one-check", []uint64{6000}, 6002, 0},
		{"two-checks", []uint64{5000, 5000}, 10002, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := core.NewProgram(c.name)
			for _, d := range c.delays {
				p.Delay(d)
			}
			p.Emit(isa.BarrierAll{})
			cl, err := core.NewCluster(core.DefaultConfig(), 1)
			if err != nil {
				t.Fatal(err)
			}
			var fired int
			cl.SetHeartbeat(0, func(core.ProgressReport) { fired++ })
			for _, run := range []string{"cold", "warm"} {
				fired = 0
				stats, err := cl.RunContext(context.Background(), []*core.Program{p})
				if err != nil {
					t.Fatalf("%s run: %v", run, err)
				}
				if stats.Cycles != c.cycles {
					t.Fatalf("%s run took %d cycles, want %d", run, stats.Cycles, c.cycles)
				}
				if fired != c.reports {
					t.Errorf("%s run reported %d time(s), want %d", run, fired, c.reports)
				}
			}
		})
	}
}

// TestHeartbeatCadenceModes: the heartbeat and the cancel check stride
// by simulated cycles, so a run delivers as many reports under
// per-cycle stepping as under the default scheduler, whose frozen jumps
// cover many cycles in one loop iteration. Every catalog workload at
// scales 1, 2 and 4; a DNN layer ignores the scale, so it runs once.
func TestHeartbeatCadenceModes(t *testing.T) {
	for _, e := range catalog.All() {
		for _, scale := range []int{1, 2, 4} {
			if e.Suite == "dnn" && scale > 1 {
				continue
			}
			t.Run(fmt.Sprintf("%s/s%d", e.Name, scale), func(t *testing.T) {
				t.Parallel()
				var reports [2]int
				for mode := range schedModes {
					cfg := applyMode(e.Config(), mode)
					inst, err := e.Build(cfg, scale)
					if err != nil {
						t.Fatal(err)
					}
					n := &reports[mode]
					count := func(cl *core.Cluster) { cl.SetHeartbeat(0, func(core.ProgressReport) { *n++ }) }
					if _, _, err := inst.Run(context.Background(), cfg, workloads.RunOpts{Prepare: count}); err != nil {
						t.Fatalf("%s: %v", schedModes[mode].name, err)
					}
				}
				if reports[0] != reports[1] {
					t.Errorf("%d report(s) %s, %d %s", reports[0], schedModes[0].name, reports[1], schedModes[1].name)
				}
			})
		}
	}
}
