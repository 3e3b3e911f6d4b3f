// Hang diagnosis across scheduling modes: a program that deadlocks must
// be diagnosed identically — cycle, class, culprit, wait chain and
// snapshot — whether the run loop steps every component every cycle
// (SchedPerCycle, the reference) or schedules by wake hints with frozen
// jumps and retired spans (the default). The hanging programs are the
// soak's maimed variants: a generated balanced command sequence with
// one non-barrier command dropped, run without repair.
package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/faults"
	"softbrain/internal/isa"
	"softbrain/internal/progen"
)

// maimedProgram is the maimed variant of seed's generated program (see
// genProgram): one non-barrier command dropped, and no repair.
func maimedProgram(t *testing.T, cfg core.Config, seed int64) *core.Program {
	t.Helper()
	p, ports, err := progen.Addpair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range progen.Maim(progen.Commands(rand.New(rand.NewSource(seed)), ports), int(seed)) {
		p.Emit(c)
	}
	if err := p.Err(); err != nil {
		t.Fatalf("seed %d: maimed program: %v", seed, err)
	}
	return p
}

// outcome renders a run's result for comparison across modes: "" for
// a completed run, the error text otherwise, prefixed by the unit a
// hang diagnosis names.
func outcome(err error) string {
	var de *core.DeadlockError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &de):
		return fmt.Sprintf("unit %d: %v", de.Unit, err)
	}
	return err.Error()
}

// TestHangDiagnosisModes runs maimed programs per-cycle and with
// default scheduling — on a lone unit fault-free and under the delay
// profile, and on 2–4-unit clusters with one maimed unit — and demands
// byte-identical outcomes: both runs complete, or both fail with the
// same error text. A hang dated from the wrong cycle shows up here as a
// different "deadlock at cycle" line.
func TestHangDiagnosisModes(t *testing.T) {
	cfg := core.DefaultConfig()
	_, ports, err := progen.Addpair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compare := func(t *testing.T, label string, run func(core.SchedMode) error) bool {
		t.Helper()
		ref, got := outcome(run(core.SchedPerCycle)), outcome(run(core.SchedSpans))
		if ref != got {
			t.Errorf("%s: outcomes differ between schedules:\nper-cycle:\n%s\ndefault:\n%s", label, ref, got)
		}
		return ref != ""
	}
	lone := func(t *testing.T, profile string, seeds int64) {
		hangs := 0
		for seed := int64(0); seed < seeds; seed++ {
			p := maimedProgram(t, cfg, seed)
			var fc *faults.Config
			if profile != "" {
				c, err := faults.Profile(profile, seed*31+7)
				if err != nil {
					t.Fatal(err)
				}
				fc = &c
			}
			if compare(t, fmt.Sprintf("seed %d", seed), func(mode core.SchedMode) error {
				c := cfg
				c.Sched = mode
				_, err := runSoak(t, c, fc, p, seed)
				return err
			}) {
				hangs++
			}
		}
		if hangs == 0 {
			t.Errorf("no maimed program failed in %d seeds; the comparison is vacuous", seeds)
		}
	}
	t.Run("unit", func(t *testing.T) { lone(t, "", 100) })
	t.Run("delay", func(t *testing.T) { lone(t, "delay", 30) })
	t.Run("cluster", func(t *testing.T) {
		hangs := 0
		for seed := int64(0); seed < 24; seed++ {
			units := 2 + int(seed)%3
			rng := rand.New(rand.NewSource(seed))
			sets := make([][]isa.Command, units)
			for u := range sets {
				sets[u] = progen.Commands(rng, ports)
			}
			bad := int(seed) % units
			sets[bad] = progen.Maim(sets[bad], int(seed))
			progs := progenCluster(t, cfg, sets, bad)
			label := fmt.Sprintf("seed %d, %d units", seed, units)
			if compare(t, label, func(mode core.SchedMode) error {
				c := cfg
				c.Sched = mode
				cl, err := core.NewCluster(c, units)
				if err != nil {
					t.Fatal(err)
				}
				progenInit(seed, units)(cl.Mem)
				_, err = cl.RunContext(context.Background(), progs)
				return err
			}) {
				hangs++
			}
		}
		if hangs == 0 {
			t.Error("no maimed cluster failed; the comparison is vacuous")
		}
	})
}
