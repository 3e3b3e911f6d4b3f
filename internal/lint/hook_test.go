package lint_test

import (
	"context"
	"strings"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/isa"
	"softbrain/internal/lint"
)

// TestHookedLoad exercises the run-side integration on a lone unit: a
// one-unit cluster with the cluster hook installed, which runs the
// machine-scope checks on every program, refuses a hazardous program
// before it loads, and accepts and runs a clean one.
func TestHookedLoad(t *testing.T) {
	racy, cfg := newProg(t)
	emit(t, racy, isa.MemPort{Src: isa.Linear(0x1000, 64), Dst: racy.In("A")})
	emit(t, racy, isa.MemPort{Src: isa.Linear(0x2000, 64), Dst: racy.In("B")})
	emit(t, racy, isa.PortMem{Src: racy.Out("C"), Dst: isa.Linear(0x1020, 64)})
	emit(t, racy, isa.BarrierAll{})

	cl, err := core.NewCluster(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl.Lint = lint.ClusterHook(cfg, lint.ClusterOpts{})
	run := func(p *core.Program) (*core.Stats, error) {
		return cl.RunContext(context.Background(), []*core.Program{p})
	}
	if _, err := run(racy); err == nil || !strings.Contains(err.Error(), lint.CheckRace) {
		t.Fatalf("hooked run(racy) = %v, want the race refusal", err)
	}

	clean, _ := newProg(t)
	emit(t, clean, isa.MemPort{Src: isa.Linear(0x1000, 64), Dst: clean.In("A")})
	emit(t, clean, isa.MemPort{Src: isa.Linear(0x2000, 64), Dst: clean.In("B")})
	emit(t, clean, isa.PortMem{Src: clean.Out("C"), Dst: isa.Linear(0x3000, 64)})
	emit(t, clean, isa.BarrierAll{})
	for i := uint64(0); i < 8; i++ {
		cl.Mem.WriteU64(0x1000+8*i, i)
		cl.Mem.WriteU64(0x2000+8*i, 10*i)
	}
	stats, err := run(clean)
	if err != nil {
		t.Fatalf("hooked run(clean) = %v", err)
	}
	if stats.Instances != 8 {
		t.Fatalf("instances = %d, want 8", stats.Instances)
	}
	for i := uint64(0); i < 8; i++ {
		if got := cl.Mem.ReadU64(0x3000 + 8*i); got != 11*i {
			t.Fatalf("r[%d] = %d, want %d", i, got, 11*i)
		}
	}
}
