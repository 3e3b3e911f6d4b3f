// Per-unit frozen jumps: the run loop freezes a unit whose wake is a
// known future cycle and does not step it until then, while its peers,
// if any, keep working. TestClusterNoWorklessSteps pins the saving: no
// unit, in a cluster or alone, is stepped through a cycle in which none
// of its components ticks. FuzzClusterEquivalence checks the soundness
// side on clusters whose units run different programs, so one unit
// sleeps through frozen windows while a peer works — the case the
// one-program sets of determinism_test.go rarely reach.
package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/faults"
	"softbrain/internal/fix"
	"softbrain/internal/isa"
	"softbrain/internal/mem"
	"softbrain/internal/progen"
	"softbrain/internal/workloads/catalog"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/machsuite"
)

// progenCluster builds one program per command sequence: unit u's
// commands rebased into its own span (u*progen.UnitSpan), materialized
// over the addpair graph, and passed through sdfix for legal barriers —
// except unit raw's (-1 for none), which runs unrepaired.
func progenCluster(t *testing.T, cfg core.Config, sets [][]isa.Command, raw int) []*core.Program {
	t.Helper()
	rebased := make([][]isa.Command, len(sets))
	for u, cmds := range sets {
		rebased[u] = progen.Rebase(cmds, uint64(u)*progen.UnitSpan)
	}
	progs, err := progen.ClusterPrograms(cfg, rebased)
	if err != nil {
		t.Fatal(err)
	}
	for u, p := range progs {
		if u == raw {
			continue
		}
		if progs[u], _, err = fix.Fix(p, cfg); err != nil {
			t.Fatal(err)
		}
	}
	return progs
}

// progenInit seeds every unit's memory pools deterministically.
func progenInit(seed int64, units int) func(*mem.Memory) {
	return func(m *mem.Memory) {
		line := make([]byte, 64)
		rng := rand.New(rand.NewSource(seed + 1000))
		for u := 0; u < units; u++ {
			for _, pool := range progen.MemPools {
				rng.Read(line)
				m.Write(pool+uint64(u)*progen.UnitSpan, line)
			}
		}
	}
}

// TestClusterNoWorklessSteps runs every DNN layer on 8 units, gemm
// replicated on 4 units, 20 generated four-unit program sets, and, as
// lone units, every single-unit catalog workload at scales 1 and 2 and
// 4 generated programs, under default scheduling. Per unit, no stepped
// cycle may tick zero components, and stepped plus skipped cycles must
// cover every cycle up to the unit's last step exactly once.
func TestClusterNoWorklessSteps(t *testing.T) {
	type clusterCase struct {
		name  string
		cfg   core.Config
		progs []*core.Program
		init  func(*mem.Memory)
	}
	var cases []clusterCase
	dcfg := dnn.Config()
	for _, l := range dnn.Layers() {
		inst, err := l.Build(dcfg, dnn.Units)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, clusterCase{l.Name, dcfg, inst.Progs, inst.Init})
	}
	cfg := core.DefaultConfig()
	gemm, err := machsuite.Find("gemm")
	if err != nil {
		t.Fatal(err)
	}
	x4 := clusterCase{name: "gemm-x4", cfg: cfg}
	for k := 0; k < 4; k++ {
		inst, err := gemm.Build(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		x4.progs = append(x4.progs, inst.Progs...)
		x4.init = inst.Init // every copy writes the same image
	}
	cases = append(cases, x4)
	_, ports, err := progen.Addpair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		cmds := progen.Commands(rand.New(rand.NewSource(seed)), ports)
		progs := progenCluster(t, cfg, [][]isa.Command{cmds, cmds, cmds, cmds}, -1)
		cases = append(cases, clusterCase{fmt.Sprintf("progen%d", seed), cfg, progs, progenInit(seed, 4)})
	}
	for _, e := range catalog.All() {
		if e.Suite == "dnn" {
			continue
		}
		for scale := 1; scale <= 2; scale++ {
			ecfg := e.Config()
			inst, err := e.Build(ecfg, scale)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, clusterCase{fmt.Sprintf("%s-s%d", e.Name, scale), ecfg, inst.Progs, inst.Init})
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		cmds := progen.Commands(rand.New(rand.NewSource(seed)), ports)
		progs := progenCluster(t, cfg, [][]isa.Command{cmds}, -1)
		cases = append(cases, clusterCase{fmt.Sprintf("lone-progen%d", seed), cfg, progs, progenInit(seed, 1)})
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cl, err := core.NewCluster(c.cfg, len(c.progs))
			if err != nil {
				t.Fatal(err)
			}
			if c.init != nil {
				c.init(cl.Mem)
			}
			total, err := cl.RunContext(context.Background(), c.progs)
			if err != nil {
				t.Fatal(err)
			}
			var end uint64
			for i, u := range cl.Units {
				s := u.SchedStats()
				if s.TickHist[0] != 0 {
					t.Errorf("unit %d: %d stepped cycles ticked no component", i, s.TickHist[0])
				}
				last := uint64(u.LastStepped() + 1)
				if s.Cycles+s.Skipped != last {
					t.Errorf("unit %d: %d stepped + %d skipped cycles, last step at cycle %d",
						i, s.Cycles, s.Skipped, last-1)
				}
				end = max(end, last)
			}
			if end != total.Cycles {
				t.Errorf("last unit step at cycle %d of a %d-cycle run", end-1, total.Cycles)
			}
		})
	}
}

// FuzzClusterEquivalence runs 2–8 units, each under its own generated
// command sequence and optionally a fault profile, per-cycle and with
// default scheduling: memory images, per-unit statistics and metrics
// dumps must be identical. `make fuzz-smoke` runs it.
func FuzzClusterEquivalence(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, uint8(2*seed), uint8(seed))
	}
	cfg := core.DefaultConfig()
	_, ports, err := progen.Addpair(cfg)
	if err != nil {
		f.Fatal(err)
	}
	profiles := []string{"", "delay", "stall"}
	f.Fuzz(func(t *testing.T, seed int64, unitSel, profileSel uint8) {
		units := 2 + int(unitSel)%7
		rng := rand.New(rand.NewSource(seed))
		sets := make([][]isa.Command, units)
		for u := range sets {
			sets[u] = progen.Commands(rng, ports)
		}
		c := cfg
		profile := profiles[int(profileSel)%len(profiles)]
		if profile != "" {
			fc, err := faults.Profile(profile, seed*31+7)
			if err != nil {
				t.Fatal(err)
			}
			c.Faults = &fc
		}
		label := fmt.Sprintf("seed %d, %d units, faults %q", seed, units, profile)
		compareClusterModes(t, label, c, progenCluster(t, cfg, sets, -1), progenInit(seed, units))
	})
}
