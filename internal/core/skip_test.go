// Skip-ahead equivalence: the idle skip-ahead in the simulation kernel
// (internal/sim, docs/SIMKERNEL.md) is a host-performance optimization
// with zero architectural effect. Every test here runs the same program
// with skipping off and on and demands identical results — statistics,
// memory images, execution traces, and fault-injected timing alike.
package core_test

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"softbrain/examples/programs"
	"softbrain/internal/core"
	"softbrain/internal/faults"
	"softbrain/internal/fix"
	"softbrain/internal/mem"
	"softbrain/internal/obs"
	"softbrain/internal/progen"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/machsuite"
)

// TestSkipAheadWorkloads runs every MachSuite workload and a DNN layer
// slice with skipping off and on: the statistics must be identical in
// every field (Cycles above all).
func TestSkipAheadWorkloads(t *testing.T) {
	type build struct {
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
	for _, b := range builds {
		b := b
		t.Run(b.name, func(t *testing.T) {
			t.Parallel()
			run := func(noSkip bool) *core.Stats {
				cfg := b.cfg
				cfg.Sched = schedFor(noSkip)
				inst, err := b.inst(cfg)
				if err != nil {
					t.Fatal(err)
				}
				_, stats, err := inst.Run(context.Background(), cfg, workloads.RunOpts{})
				if err != nil {
					t.Fatal(err)
				}
				return stats
			}
			off, on := run(true), run(false)
			if !reflect.DeepEqual(off, on) {
				t.Errorf("stats differ with skip-ahead:\n  off: %+v\n  on:  %+v", off, on)
			}
		})
	}
}

// TestSkipAheadExamples runs every example program (quickstart,
// stencil, spmv, classifier) with skipping off and on: identical
// statistics and byte-identical memory, on top of each example's own
// golden-model check.
func TestSkipAheadExamples(t *testing.T) {
	run := func(noSkip bool) map[string]struct {
		mem   *mem.Memory
		stats *core.Stats
	} {
		exs, err := programs.All()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]struct {
			mem   *mem.Memory
			stats *core.Stats
		})
		for _, e := range exs {
			e.Cfg.Sched = schedFor(noSkip)
			m, s, err := e.Run()
			if err != nil {
				t.Fatalf("%s (noSkip=%v): %v", e.Name, noSkip, err)
			}
			out[e.Name] = struct {
				mem   *mem.Memory
				stats *core.Stats
			}{m, s}
		}
		return out
	}
	off, on := run(true), run(false)
	for name, o := range off {
		n := on[name]
		if !reflect.DeepEqual(o.stats, n.stats) {
			t.Errorf("%s: stats differ with skip-ahead:\n  off: %+v\n  on:  %+v", name, o.stats, n.stats)
		}
		// Diffs at/above ConfigSpace are the per-process configuration
		// slots, which differ between the two builds by design.
		if addr, diff := n.mem.FirstDiff(o.mem); diff && addr < core.ConfigSpace {
			t.Errorf("%s: memory differs at %#x with skip-ahead", name, addr)
		}
	}
}

// runTraced runs p on a fresh machine with tracing and metrics
// enabled and the memory pools seeded deterministically, returning the
// machine and statistics.
func runTraced(t *testing.T, cfg core.Config, p *core.Program, seed int64) (*core.Machine, *core.Stats) {
	t.Helper()
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableTrace(1 << 20)
	m.EnableMetrics(obs.New(0, obs.Options{}))
	line := make([]byte, 64)
	irng := rand.New(rand.NewSource(seed + 1000))
	for _, base := range progen.MemPools {
		irng.Read(line)
		m.Sys.Mem.Write(base, line)
	}
	stats, err := m.Run(p)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return m, stats
}

// metricsDump marshals the machine's metrics, failing on conservation
// violations first — the byte-for-byte diffs below compare only dumps
// that are individually sound.
func metricsDump(t *testing.T, m *core.Machine) []byte {
	t.Helper()
	d := m.MetricsDump()
	if err := obs.CheckConservation(d); err != nil {
		t.Error(err)
	}
	data, err := d.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSkipAheadTraces runs generated programs with skipping off and on
// and compares statistics, memory images, and the full execution trace
// (activity lanes and stream lifetime spans). At least one run must
// actually skip, or the optimization is vacuous.
func TestSkipAheadTraces(t *testing.T) {
	cfg := core.DefaultConfig()
	var skipped uint64
	for seed := int64(0); seed < 20; seed++ {
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

		offCfg, onCfg := cfg, cfg
		offCfg.Sched = core.SchedPerCycle
		mOff, sOff := runTraced(t, offCfg, fixed, seed)
		mOn, sOn := runTraced(t, onCfg, fixed, seed)
		skipped += mOn.SkippedCycles()

		if !reflect.DeepEqual(sOff, sOn) {
			t.Errorf("seed %d: stats differ with skip-ahead:\n  off: %+v\n  on:  %+v", seed, sOff, sOn)
		}
		if addr, diff := mOn.Sys.Mem.FirstDiff(mOff.Sys.Mem); diff {
			t.Errorf("seed %d: memory differs at %#x with skip-ahead", seed, addr)
		}
		if !reflect.DeepEqual(mOff.Trace().Spans(), mOn.Trace().Spans()) {
			t.Errorf("seed %d: stream lifetime spans differ with skip-ahead", seed)
		}
		if off, on := mOff.Trace().Gantt(100), mOn.Trace().Gantt(100); off != on {
			t.Errorf("seed %d: activity lanes differ with skip-ahead:\noff:\n%son:\n%s", seed, off, on)
		}
		if off, on := metricsDump(t, mOff), metricsDump(t, mOn); !bytes.Equal(off, on) {
			t.Errorf("seed %d: metrics dump differs with skip-ahead:\noff:\n%son:\n%s", seed, off, on)
		}
	}
	if skipped == 0 {
		t.Error("no run skipped a single cycle; skip-ahead never engaged")
	}
}

// TestSkipAheadUnderFaults runs generated programs under the delay and
// stall fault profiles with skipping off and on. The delay profile
// draws randomness per accepted request, so skip-ahead stays active and
// must preserve the exact fault schedule; the stall profile draws per
// engine-cycle, so the machine must disable skipping itself (and still
// match trivially).
func TestSkipAheadUnderFaults(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, profile := range []string{"delay", "stall"} {
		profile := profile
		t.Run(profile, func(t *testing.T) {
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
				fc, err := faults.Profile(profile, seed*17+3)
				if err != nil {
					t.Fatal(err)
				}

				run := func(noSkip bool) (*core.Machine, *core.Stats, faults.Stats) {
					c := cfg
					c.Sched = schedFor(noSkip)
					c.Faults = &fc
					m, s := runTraced(t, c, fixed, seed)
					return m, s, m.FaultStats()
				}
				mOff, sOff, fOff := run(true)
				mOn, sOn, fOn := run(false)

				if !reflect.DeepEqual(sOff, sOn) {
					t.Errorf("seed %d: stats differ with skip-ahead under %s faults:\n  off: %+v\n  on:  %+v",
						seed, profile, sOff, sOn)
				}
				if fOff != fOn {
					t.Errorf("seed %d: fault schedule differs with skip-ahead under %s:\n  off: %+v\n  on:  %+v",
						seed, profile, fOff, fOn)
				}
				if addr, diff := mOn.Sys.Mem.FirstDiff(mOff.Sys.Mem); diff {
					t.Errorf("seed %d: memory differs at %#x under %s faults", seed, addr, profile)
				}
				if off, on := metricsDump(t, mOff), metricsDump(t, mOn); !bytes.Equal(off, on) {
					t.Errorf("seed %d: metrics dump differs with skip-ahead under %s faults", seed, profile)
				}
				if profile == "stall" && mOn.SkippedCycles() != 0 {
					t.Errorf("seed %d: skipped %d cycles under per-cycle stall draws; skip must self-disable",
						seed, mOn.SkippedCycles())
				}
			}
		})
	}
}
