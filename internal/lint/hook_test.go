package lint_test

import (
	"strings"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/isa"
	"softbrain/internal/lint"
)

// TestHookedLoad exercises the machine-side integration: a machine with
// the Lint hook installed refuses hazardous programs at Load, and so at
// Run, and accepts and runs clean ones.
func TestHookedLoad(t *testing.T) {
	racy, cfg := newProg(t)
	emit(t, racy, isa.MemPort{Src: isa.Linear(0x1000, 64), Dst: racy.In("A")})
	emit(t, racy, isa.MemPort{Src: isa.Linear(0x2000, 64), Dst: racy.In("B")})
	emit(t, racy, isa.PortMem{Src: racy.Out("C"), Dst: isa.Linear(0x1020, 64)})
	emit(t, racy, isa.BarrierAll{})

	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Lint = lint.Hook(m.Config())
	err = m.Load(racy)
	if err == nil {
		t.Fatal("hooked Load accepted a racy program")
	}
	if !strings.Contains(err.Error(), lint.CheckRace) {
		t.Fatalf("hooked Load error %q does not name the race check", err)
	}
	if _, err := m.Run(racy); err == nil || !strings.Contains(err.Error(), lint.CheckRace) {
		t.Fatalf("hooked Run(racy) = %v, want the race refusal", err)
	}

	clean, _ := newProg(t)
	emit(t, clean, isa.MemPort{Src: isa.Linear(0x1000, 64), Dst: clean.In("A")})
	emit(t, clean, isa.MemPort{Src: isa.Linear(0x2000, 64), Dst: clean.In("B")})
	emit(t, clean, isa.PortMem{Src: clean.Out("C"), Dst: isa.Linear(0x3000, 64)})
	emit(t, clean, isa.BarrierAll{})
	for i := uint64(0); i < 8; i++ {
		m.Sys.Mem.WriteU64(0x1000+8*i, i)
		m.Sys.Mem.WriteU64(0x2000+8*i, 10*i)
	}
	stats, err := m.Run(clean)
	if err != nil {
		t.Fatalf("hooked Run(clean) = %v", err)
	}
	if stats.Instances != 8 {
		t.Fatalf("instances = %d, want 8", stats.Instances)
	}
	for i := uint64(0); i < 8; i++ {
		if got := m.Sys.Mem.ReadU64(0x3000 + 8*i); got != 11*i {
			t.Fatalf("r[%d] = %d, want %d", i, got, 11*i)
		}
	}
}
