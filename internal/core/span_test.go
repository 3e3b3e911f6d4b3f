// Span-retirement equivalence: batched span retirement (Machine.retireSpan,
// sim.Kernel.RetireSpan, docs/SIMKERNEL.md) is a host-performance
// optimization with zero architectural effect, layered on top of the
// wake-set scheduler. Every test here runs the same program in three
// scheduling modes — per-cycle (SchedPerCycle), wake-set only
// (SchedWakeSet), and wake-set with span retirement (SchedSpans) — and
// demands identical results: statistics, memory images, fault
// schedules, and observability dumps alike. FuzzSpanEquivalence extends
// the seeds under `make fuzz-smoke`.
package core_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/faults"
	"softbrain/internal/fix"
	"softbrain/internal/progen"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/ext"
	"softbrain/internal/workloads/machsuite"
)

// schedModes are the three scheduling configurations under test, from
// reference semantics to fully event-driven.
var schedModes = []struct {
	name  string
	sched core.SchedMode
}{
	{"per-cycle", core.SchedPerCycle},
	{"wake-set", core.SchedWakeSet},
	{"spans", core.SchedSpans},
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
	return core.SchedSpans
}

// TestSpanEquivalenceWorkloads runs every MachSuite workload, the
// extension workloads, and a DNN layer slice in all three scheduling
// modes: statistics and final memory images must be identical, each
// workload's own golden-model check must pass, and span retirement
// must actually engage somewhere in the suite (or the mode is
// vacuous).
func TestSpanEquivalenceWorkloads(t *testing.T) {
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
	for _, e := range ext.All() {
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
	var spansRetired atomic.Uint64
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
					stats, err := cl.Run(inst.Progs)
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
					// Diffs at/above ConfigSpace are the per-process
					// configuration slots, which differ between the
					// per-mode builds by design.
					if addr, diff := got.cl.Mem.FirstDiff(ref.cl.Mem); diff && addr < core.ConfigSpace {
						t.Errorf("memory differs at %#x between %s and %s",
							addr, schedModes[0].name, schedModes[mode].name)
					}
					if mode == 2 {
						spansRetired.Add(got.cl.SchedStats().Spans)
					}
				}
			})
		}
	})
	if spansRetired.Load() == 0 {
		t.Error("no workload retired a single span; span retirement never engaged")
	}
}

// runPlain runs p on a fresh machine with the memory pools seeded
// deterministically and no observers attached — the configuration
// where span retirement is live.
func runPlain(t *testing.T, cfg core.Config, p *core.Program, seed int64) (*core.Machine, *core.Stats) {
	t.Helper()
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
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

// TestSpanEquivalenceSeeds runs generated programs across the three
// scheduling modes and compares statistics and memory images; then the
// same programs with the observability layer attached in each mode,
// demanding byte-identical metrics dumps (attaching metrics forces
// per-cycle attribution, which must itself be mode-independent). At
// least one plain run must retire a span.
func TestSpanEquivalenceSeeds(t *testing.T) {
	cfg := core.DefaultConfig()
	var spans uint64
	for seed := int64(0); seed < 20; seed++ {
		fixed := genProgram(t, cfg, seed)

		mRef, sRef := runPlain(t, applyMode(cfg, 0), fixed, seed)
		for mode := 1; mode < len(schedModes); mode++ {
			m, s := runPlain(t, applyMode(cfg, mode), fixed, seed)
			if !reflect.DeepEqual(sRef, s) {
				t.Errorf("seed %d: stats differ between %s and %s:\n  %+v\n  %+v",
					seed, schedModes[0].name, schedModes[mode].name, sRef, s)
			}
			if addr, diff := m.Sys.Mem.FirstDiff(mRef.Sys.Mem); diff {
				t.Errorf("seed %d: memory differs at %#x between %s and %s",
					seed, addr, schedModes[0].name, schedModes[mode].name)
			}
			if mode == 2 {
				spans += m.SchedStats().Spans
			}
		}

		var dumpRef []byte
		for mode := range schedModes {
			m, _ := runTraced(t, applyMode(cfg, mode), fixed, seed)
			dump := metricsDump(t, m)
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
	if spans == 0 {
		t.Error("no generated run retired a single span; span retirement never engaged")
	}
}

// TestSpanEquivalenceUnderFaults runs generated programs under the
// delay, stall, and bitflip fault profiles in all three scheduling
// modes: identical statistics, fault schedules, and memory images.
// The stall profile draws randomness per engine-cycle, so the machine
// must force per-cycle stepping itself (spans included); bitflips
// corrupt data, but deterministically, so the corruption must be
// identical across modes.
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
				run := func(mode int) (*core.Machine, *core.Stats, faults.Stats) {
					c := applyMode(cfg, mode)
					c.Faults = &fc
					m, s := runPlain(t, c, fixed, seed)
					return m, s, m.FaultStats()
				}
				mRef, sRef, fRef := run(0)
				for mode := 1; mode < len(schedModes); mode++ {
					m, s, f := run(mode)
					if !reflect.DeepEqual(sRef, s) {
						t.Errorf("seed %d: stats differ between %s and %s under %s:\n  %+v\n  %+v",
							seed, schedModes[0].name, schedModes[mode].name, profile, sRef, s)
					}
					if fRef != f {
						t.Errorf("seed %d: fault schedule differs between %s and %s under %s:\n  %+v\n  %+v",
							seed, schedModes[0].name, schedModes[mode].name, profile, fRef, f)
					}
					if addr, diff := m.Sys.Mem.FirstDiff(mRef.Sys.Mem); diff {
						t.Errorf("seed %d: memory differs at %#x between %s and %s under %s",
							seed, addr, schedModes[0].name, schedModes[mode].name, profile)
					}
					if profile == "stall" && mode == 2 && m.SchedStats().Spans != 0 {
						t.Errorf("seed %d: retired %d spans under per-cycle stall draws; spans must self-disable",
							seed, m.SchedStats().Spans)
					}
				}
			}
		})
	}
}

// FuzzSpanEquivalence is the randomized slice of the three-mode
// equivalence property for `make fuzz-smoke`: an arbitrary command
// seed, optionally under a fault profile, must produce identical
// statistics and memory in all three scheduling modes.
func FuzzSpanEquivalence(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, uint8(seed))
	}
	cfg := core.DefaultConfig()
	profiles := []string{"", "delay", "stall", "bitflip"}
	f.Fuzz(func(t *testing.T, seed int64, profileSel uint8) {
		fixed := genProgram(t, cfg, seed)
		c := cfg
		if name := profiles[int(profileSel)%len(profiles)]; name != "" {
			fc, err := faults.Profile(name, seed*31+7)
			if err != nil {
				t.Fatal(err)
			}
			c.Faults = &fc
		}
		mRef, sRef := runPlain(t, applyMode(c, 0), fixed, seed)
		for mode := 1; mode < len(schedModes); mode++ {
			m, s := runPlain(t, applyMode(c, mode), fixed, seed)
			if !reflect.DeepEqual(sRef, s) {
				t.Errorf("seed %d: stats differ between %s and %s:\n  %+v\n  %+v",
					seed, schedModes[0].name, schedModes[mode].name, sRef, s)
			}
			if addr, diff := m.Sys.Mem.FirstDiff(mRef.Sys.Mem); diff {
				t.Errorf("seed %d: memory differs at %#x between %s and %s",
					seed, addr, schedModes[0].name, schedModes[mode].name)
			}
		}
	})
}
