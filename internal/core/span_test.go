// Scheduling-mode equivalence, per-cycle against the default wake-set
// scheduler: the wake-set scheduler and its frozen jumps
// (sim.Kernel.Due, docs/SIMKERNEL.md) are a host-performance
// optimization with zero architectural effect. Every test here runs the
// same program in both scheduling modes — per-cycle (SchedPerCycle) and
// the default wake-set scheduler (SchedWakeSet) — and demands identical
// results: statistics, memory images, fault schedules, and
// observability dumps alike. FuzzSpanEquivalence extends the seeds
// under `make fuzz-smoke`. The names keep the word "span" from span
// retirement, a batched stepping path since deleted.
package core_test

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/faults"
	"softbrain/internal/fix"
	"softbrain/internal/obs"
	"softbrain/internal/progen"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/catalog"
)

// schedModes are the scheduling configurations under test: the
// reference semantics first, then the fully event-driven default.
var schedModes = []struct {
	name  string
	sched core.SchedMode
}{
	{"per-cycle", core.SchedPerCycle},
	{"wake-set", core.SchedWakeSet},
}

// applyMode returns cfg with the mode's scheduling set.
func applyMode(cfg core.Config, mode int) core.Config {
	cfg.Sched = schedModes[mode].sched
	return cfg
}

// schedFor is the mode the two-way equivalence tests run: per-cycle
// stepping when perCycle is set, the default otherwise.
func schedFor(perCycle bool) core.SchedMode {
	if perCycle {
		return core.SchedPerCycle
	}
	return core.SchedWakeSet
}

// TestSpanEquivalenceWorkloads runs every MachSuite workload, the
// extension workloads, and a DNN layer slice per-cycle against the
// default wake-set scheduler: statistics and final memory images must
// be identical, and each workload's own golden-model check must pass.
func TestSpanEquivalenceWorkloads(t *testing.T) {
	type build struct {
		name string
		inst func(cfg core.Config) (*workloads.Instance, error)
		cfg  core.Config
	}
	var builds []build
	layers := 0
	for _, e := range catalog.All() {
		if e.Suite == "dnn" {
			if layers == 2 {
				continue
			}
			layers++
		}
		builds = append(builds, build{e.Name, func(cfg core.Config) (*workloads.Instance, error) {
			return e.Build(cfg, 2)
		}, e.Config()})
	}
	t.Run("suite", func(t *testing.T) {
		for _, b := range builds {
			b := b
			t.Run(b.name, func(t *testing.T) {
				t.Parallel()
				type result struct {
					stats *core.Stats
					cl    *core.Cluster
				}
				runMode := func(mode int) result {
					cfg := applyMode(b.cfg, mode)
					inst, err := b.inst(cfg)
					if err != nil {
						t.Fatal(err)
					}
					cl, err := core.NewCluster(cfg, inst.Units())
					if err != nil {
						t.Fatal(err)
					}
					if inst.Init != nil {
						inst.Init(cl.Mem)
					}
					stats, err := cl.RunContext(context.Background(), inst.Progs)
					if err != nil {
						t.Fatalf("%s: %v", schedModes[mode].name, err)
					}
					if inst.Check != nil {
						if err := inst.Check(cl.Mem); err != nil {
							t.Fatalf("%s: %v", schedModes[mode].name, err)
						}
					}
					return result{stats, cl}
				}
				ref := runMode(0)
				for mode := 1; mode < len(schedModes); mode++ {
					got := runMode(mode)
					if !reflect.DeepEqual(ref.stats, got.stats) {
						t.Errorf("stats differ between %s and %s:\n  %s: %+v\n  %s: %+v",
							schedModes[0].name, schedModes[mode].name,
							schedModes[0].name, ref.stats, schedModes[mode].name, got.stats)
					}
					if addr, diff := got.cl.Mem.FirstDiff(ref.cl.Mem); diff {
						t.Errorf("memory differs at %#x between %s and %s",
							addr, schedModes[0].name, schedModes[mode].name)
					}
				}
			})
		}
	})
}

// runSeeded runs p on a fresh one-unit cluster with the memory pools
// seeded deterministically and returns the cluster, its statistics and
// the run's error. With traced set the cluster carries a traced metrics
// registry (stall slices and stream lifetimes recorded); it is
// scheduled the same way either way.
func runSeeded(t *testing.T, cfg core.Config, p *core.Program, seed int64, traced bool) (*core.Cluster, *core.Stats, error) {
	t.Helper()
	cl, err := core.NewCluster(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		cl.EnableMetrics(obs.Options{Slices: obs.DefaultSlices})
	}
	line := make([]byte, 64)
	irng := rand.New(rand.NewSource(seed + 1000))
	for _, base := range progen.MemPools {
		irng.Read(line)
		cl.Mem.Write(base, line)
	}
	stats, err := cl.RunContext(context.Background(), []*core.Program{p})
	return cl, stats, err
}

// runPlain is runSeeded with no observers attached, failing the test on
// a run error.
func runPlain(t *testing.T, cfg core.Config, p *core.Program, seed int64) (*core.Cluster, *core.Stats) {
	t.Helper()
	cl, stats, err := runSeeded(t, cfg, p, seed, false)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return cl, stats
}

// genProgram builds the seeded generated program the skip-ahead tests
// use: the addpair dataflow under a random command stream, passed
// through sdfix for legal barriers.
func genProgram(t *testing.T, cfg core.Config, seed int64) *core.Program {
	t.Helper()
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
	return fixed
}

// TestSpanEquivalenceSeeds runs generated programs per-cycle against
// the default wake-set scheduler and compares statistics and memory
// images; then the same programs with the observability layer attached
// in each mode, demanding byte-identical metrics dumps (stall
// attribution must itself be mode-independent, frozen jumps included).
func TestSpanEquivalenceSeeds(t *testing.T) {
	cfg := core.DefaultConfig()
	for seed := int64(0); seed < 20; seed++ {
		fixed := genProgram(t, cfg, seed)

		clRef, sRef := runPlain(t, applyMode(cfg, 0), fixed, seed)
		for mode := 1; mode < len(schedModes); mode++ {
			cl, s := runPlain(t, applyMode(cfg, mode), fixed, seed)
			if !reflect.DeepEqual(sRef, s) {
				t.Errorf("seed %d: stats differ between %s and %s:\n  %+v\n  %+v",
					seed, schedModes[0].name, schedModes[mode].name, sRef, s)
			}
			if addr, diff := cl.Mem.FirstDiff(clRef.Mem); diff {
				t.Errorf("seed %d: memory differs at %#x between %s and %s",
					seed, addr, schedModes[0].name, schedModes[mode].name)
			}
		}

		var dumpRef []byte
		for mode := range schedModes {
			cl, _ := runTraced(t, applyMode(cfg, mode), fixed, seed)
			dump := metricsDump(t, cl)
			if mode == 0 {
				dumpRef = dump
				continue
			}
			if !bytes.Equal(dumpRef, dump) {
				t.Errorf("seed %d: metrics dump differs between %s and %s",
					seed, schedModes[0].name, schedModes[mode].name)
			}
		}
	}
}

// TestSpanEquivalenceUnderFaults runs generated programs under the
// delay, stall, and bitflip fault profiles per-cycle against the
// default wake-set scheduler: identical statistics, fault schedules,
// and memory images. The stall profile draws randomness per
// engine-cycle, so the machine must force per-cycle stepping itself
// (TestSkipAheadUnderFaults checks that it does); bitflips corrupt
// data, but deterministically, so the corruption must be identical
// across modes.
func TestSpanEquivalenceUnderFaults(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, profile := range []string{"delay", "stall", "bitflip"} {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 7; seed++ {
				fixed := genProgram(t, cfg, seed)
				fc, err := faults.Profile(profile, seed*17+3)
				if err != nil {
					t.Fatal(err)
				}
				run := func(mode int) (*core.Cluster, *core.Stats, faults.Stats) {
					c := applyMode(cfg, mode)
					c.Faults = &fc
					cl, s := runPlain(t, c, fixed, seed)
					return cl, s, cl.FaultStats()
				}
				clRef, sRef, fRef := run(0)
				for mode := 1; mode < len(schedModes); mode++ {
					cl, s, f := run(mode)
					if !reflect.DeepEqual(sRef, s) {
						t.Errorf("seed %d: stats differ between %s and %s under %s:\n  %+v\n  %+v",
							seed, schedModes[0].name, schedModes[mode].name, profile, sRef, s)
					}
					if fRef != f {
						t.Errorf("seed %d: fault schedule differs between %s and %s under %s:\n  %+v\n  %+v",
							seed, schedModes[0].name, schedModes[mode].name, profile, fRef, f)
					}
					if addr, diff := cl.Mem.FirstDiff(clRef.Mem); diff {
						t.Errorf("seed %d: memory differs at %#x between %s and %s under %s",
							seed, addr, schedModes[0].name, schedModes[mode].name, profile)
					}
				}
			}
		})
	}
}

// FuzzSpanEquivalence is the randomized slice of the two-mode
// equivalence property, per-cycle against the default wake-set
// scheduler, for `make fuzz-smoke`: an arbitrary command seed,
// optionally under a fault profile, must produce identical statistics
// and memory in both scheduling modes. With traced set,
// both modes run with a traced metrics registry attached and their
// dumps must be byte-identical too. With maim set, the program is the
// seed's maimed variant (one command dropped, no repair, as in
// TestHangDiagnosisModes), which may hang: the two modes must then fail
// with the same error text.
func FuzzSpanEquivalence(f *testing.F) {
	for _, maim := range []bool{false, true} {
		for seed := int64(0); seed < 4; seed++ {
			f.Add(seed, uint8(seed), seed%2 == 1, maim)
		}
	}
	cfg := core.DefaultConfig()
	profiles := []string{"", "delay", "stall", "bitflip"}
	f.Fuzz(func(t *testing.T, seed int64, profileSel uint8, traced, maim bool) {
		build := genProgram
		if maim {
			build = maimedProgram
		}
		p := build(t, cfg, seed)
		c := cfg
		if name := profiles[int(profileSel)%len(profiles)]; name != "" {
			fc, err := faults.Profile(name, seed*31+7)
			if err != nil {
				t.Fatal(err)
			}
			c.Faults = &fc
		}
		run := func(mode int) (*core.Cluster, *core.Stats, string) {
			cl, s, err := runSeeded(t, applyMode(c, mode), p, seed, traced)
			if err != nil && !maim {
				t.Fatalf("seed %d, %s: %v", seed, schedModes[mode].name, err)
			}
			return cl, s, outcome(err)
		}
		clRef, sRef, eRef := run(0)
		for mode := 1; mode < len(schedModes); mode++ {
			cl, s, e := run(mode)
			if e != eRef {
				t.Errorf("seed %d: outcomes differ between %s and %s:\n%s:\n%s\n%s:\n%s",
					seed, schedModes[0].name, schedModes[mode].name, schedModes[0].name, eRef, schedModes[mode].name, e)
			}
			if e != "" || eRef != "" {
				continue
			}
			if !reflect.DeepEqual(sRef, s) {
				t.Errorf("seed %d: stats differ between %s and %s:\n  %+v\n  %+v",
					seed, schedModes[0].name, schedModes[mode].name, sRef, s)
			}
			if addr, diff := cl.Mem.FirstDiff(clRef.Mem); diff {
				t.Errorf("seed %d: memory differs at %#x between %s and %s",
					seed, addr, schedModes[0].name, schedModes[mode].name)
			}
			if traced && !bytes.Equal(metricsDump(t, clRef), metricsDump(t, cl)) {
				t.Errorf("seed %d: metrics dump differs between %s and %s",
					seed, schedModes[0].name, schedModes[mode].name)
			}
		}
	})
}
