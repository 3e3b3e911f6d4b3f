package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"softbrain/internal/cgra"
	"softbrain/internal/dfg"
	"softbrain/internal/isa"
	"softbrain/internal/port"
)

// addpairProg mirrors the linter's seeded-hazard rig: the two-input
// adder graph (A + B -> C, one word each), so one instance consumes 8
// bytes per input port and produces 8 on C.
func addpairProg(t *testing.T) (*Program, Config) {
	t.Helper()
	cfg := DefaultConfig()
	b := dfg.NewBuilder("addpair")
	a := b.Input("A", 1)
	v := b.Input("B", 1)
	b.Output("C", b.N(dfg.Add(64), a.W(0), v.W(0)))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProgram("addpair")
	p.CompileAndConfigure(cfg.Fabric, g)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	return p, cfg
}

// tinyProg is the adder on minimally buffered ports (depth = width), so
// a single instance of residue wedges the fabric.
func tinyProg(t *testing.T) (*Program, Config) {
	t.Helper()
	cfg := DefaultConfig()
	f := cgra.NewFabric(5, 4, dfg.FUAlu, dfg.FUMul)
	for i := range f.InPorts {
		if !f.InPorts[i].Indirect {
			f.InPorts[i].Depth = f.InPorts[i].Width
		}
	}
	for i := range f.OutPorts {
		f.OutPorts[i].Depth = f.OutPorts[i].Width
	}
	cfg.Fabric = f
	b := dfg.NewBuilder("addpair")
	a := b.Input("A", 1)
	v := b.Input("B", 1)
	b.Output("C", b.N(dfg.Add(64), a.W(0), v.W(0)))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProgram("addpair")
	p.CompileAndConfigure(cfg.Fabric, g)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	return p, cfg
}

// runHang runs p expecting a deadlock and returns the diagnosis.
func runHang(t *testing.T, p *Program, cfg Config) *DeadlockError {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(p)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run = %v, want a DeadlockError", err)
	}
	return de
}

// TestDiagnoseHangCorpus replays the linter's seeded-hazard corpus
// without repair and checks that each hang is classified with the
// culprit stream and port named.
func TestDiagnoseHangCorpus(t *testing.T) {
	t.Run("unequal-counts", func(t *testing.T) {
		// B receives one instance to A's two: the dataflow starves.
		p, cfg := addpairProg(t)
		p.Emit(isa.MemPort{Src: isa.Linear(0x1000, 16), Dst: p.In("A")})
		p.Emit(isa.MemPort{Src: isa.Linear(0x2000, 8), Dst: p.In("B")})
		p.Emit(isa.CleanPort{Src: p.Out("C"), Elem: isa.Elem64, Count: 2})
		de := runHang(t, p, cfg)
		if de.Class != HangPortUndersupply {
			t.Fatalf("class = %v, want %v\n%v", de.Class, HangPortUndersupply, de)
		}
		if want := fmt.Sprintf("in%d", p.In("B")); de.Port != want {
			t.Fatalf("port = %q, want %q\n%v", de.Port, want, de)
		}
		if !strings.Contains(de.Stream, "Clean_Port") {
			t.Fatalf("stream = %q, want the starving consumer\n%v", de.Stream, de)
		}
	})

	t.Run("overconsume", func(t *testing.T) {
		// One instance produces 8 bytes; consuming 16 deadlocks.
		p, cfg := addpairProg(t)
		p.Emit(isa.MemPort{Src: isa.Linear(0x1000, 8), Dst: p.In("A")})
		p.Emit(isa.MemPort{Src: isa.Linear(0x2000, 8), Dst: p.In("B")})
		p.Emit(isa.CleanPort{Src: p.Out("C"), Elem: isa.Elem64, Count: 2})
		de := runHang(t, p, cfg)
		if de.Class != HangPortUndersupply {
			t.Fatalf("class = %v, want %v\n%v", de.Class, HangPortUndersupply, de)
		}
	})

	t.Run("oversupply-unmapped", func(t *testing.T) {
		// A constant stream overfills a port no configuration maps.
		p, cfg := addpairProg(t)
		var free isa.InPortID
		found := false
		used := map[isa.InPortID]bool{p.In("A"): true, p.In("B"): true}
		for hw, spec := range cfg.Fabric.InPorts {
			if !spec.Indirect && !used[isa.InPortID(hw)] {
				free, found = isa.InPortID(hw), true
				break
			}
		}
		if !found {
			t.Fatal("fabric has no unmapped non-indirect input port")
		}
		depth := cfg.Fabric.InPorts[free].Depth
		p.Emit(isa.ConstPort{Value: 1, Elem: isa.Elem64, Count: uint64(depth + 1), Dst: free})
		de := runHang(t, p, cfg)
		if de.Class != HangPortOversupply {
			t.Fatalf("class = %v, want %v\n%v", de.Class, HangPortOversupply, de)
		}
		if want := fmt.Sprintf("in%d", free); de.Port != want {
			t.Fatalf("port = %q, want %q\n%v", de.Port, want, de)
		}
	})

	t.Run("starved-recurrence", func(t *testing.T) {
		// Footnote 1 of Section 3.3: the recurrence must produce the
		// first A, but A only arrives after Y fires.
		p, cfg := tinyProg(t)
		const n = 64
		p.Emit(isa.MemPort{Src: isa.Linear(0, n*8), Dst: p.In("B")})
		p.Emit(isa.PortPort{Src: p.Out("C"), Elem: isa.Elem64, Count: n, Dst: p.In("A")})
		p.Emit(isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(0x9000, n*8)})
		p.Emit(isa.BarrierAll{})
		de := runHang(t, p, cfg)
		if de.Class != HangStarvedRecurrence {
			t.Fatalf("class = %v, want %v\n%v", de.Class, HangStarvedRecurrence, de)
		}
		if !strings.Contains(de.Stream, "Port_Port") {
			t.Fatalf("stream = %q, want the recurrence\n%v", de.Stream, de)
		}
	})

	t.Run("drained-unread", func(t *testing.T) {
		// The fabric's output is produced but nothing ever reads it;
		// with minimal buffering the residue wedges the suppliers.
		p, cfg := tinyProg(t)
		p.Emit(isa.MemPort{Src: isa.Linear(0x1000, 64), Dst: p.In("A")})
		p.Emit(isa.MemPort{Src: isa.Linear(0x2000, 64), Dst: p.In("B")})
		p.Emit(isa.BarrierAll{})
		de := runHang(t, p, cfg)
		if de.Class != HangDrainedUnread {
			t.Fatalf("class = %v, want %v\n%v", de.Class, HangDrainedUnread, de)
		}
		if want := fmt.Sprintf("out%d", p.Out("C")); de.Port != want {
			t.Fatalf("port = %q, want %q\n%v", de.Port, want, de)
		}
	})

	t.Run("barrier-deadlock", func(t *testing.T) {
		// The supply for B sits in the trace behind a barrier that can
		// never complete, because the consumer it waits on needs B.
		p, cfg := addpairProg(t)
		p.Emit(isa.MemPort{Src: isa.Linear(0x1000, 64), Dst: p.In("A")})
		p.Emit(isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(0x3000, 64)})
		p.Emit(isa.BarrierAll{})
		p.Emit(isa.MemPort{Src: isa.Linear(0x2000, 64), Dst: p.In("B")})
		de := runHang(t, p, cfg)
		if de.Class != HangBarrierDeadlock {
			t.Fatalf("class = %v, want %v\n%v", de.Class, HangBarrierDeadlock, de)
		}
	})
}

// TestDiagnoseChainRendering checks the human-facing output carries the
// wait chain and the snapshot.
func TestDiagnoseChainRendering(t *testing.T) {
	p, cfg := addpairProg(t)
	p.Emit(isa.MemPort{Src: isa.Linear(0x1000, 16), Dst: p.In("A")})
	p.Emit(isa.MemPort{Src: isa.Linear(0x2000, 8), Dst: p.In("B")})
	p.Emit(isa.CleanPort{Src: p.Out("C"), Elem: isa.Elem64, Count: 2})
	de := runHang(t, p, cfg)
	if len(de.Chain) == 0 {
		t.Fatalf("diagnosis has no wait chain: %v", de)
	}
	msg := de.Error()
	for _, want := range []string{"port-undersupply", "wait chain", "pc="} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() lacks %q:\n%s", want, msg)
		}
	}
}

// TestQuiescenceBeatsWatchdog: a quiescent deadlock must be detected in
// well under 1% of the watchdog budget — the machine goes quiet a few
// hundred cycles in, and the diagnosis fires tens of cycles later
// instead of 50000.
func TestQuiescenceBeatsWatchdog(t *testing.T) {
	// Scratchpad supplies avoid DRAM latency, so the hang sets in after
	// a few tens of cycles and the whole run — including detection —
	// must finish inside 1% of the watchdog budget.
	p, cfg := addpairProg(t)
	p.Emit(isa.ScratchPort{Src: isa.Linear(0, 16), Dst: p.In("A")})
	p.Emit(isa.ScratchPort{Src: isa.Linear(64, 8), Dst: p.In("B")})
	p.Emit(isa.CleanPort{Src: p.Out("C"), Elem: isa.Elem64, Count: 2})
	de := runHang(t, p, cfg) // default watchdog: 50000 idle cycles
	if de.Class == HangWatchdog {
		t.Fatalf("quiescent hang fell through to the watchdog: %v", de)
	}
	if de.Cycle > defaultWatchdog/100 {
		t.Fatalf("diagnosed at cycle %d, want < %d (1%% of the watchdog)", de.Cycle, defaultWatchdog/100)
	}
}

// TestWatchdogValidation: a watchdog shorter than the quiescence grace
// period or one command's issue cost is rejected up front.
func TestWatchdogValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 50
	if _, err := NewMachine(cfg); err == nil || !strings.Contains(err.Error(), "WatchdogCycles") {
		t.Fatalf("NewMachine(watchdog=50) = %v, want a WatchdogCycles error", err)
	}
	cfg.WatchdogCycles = 2000
	if _, err := NewMachine(cfg); err != nil {
		t.Fatalf("NewMachine(watchdog=2000) = %v", err)
	}
}

// TestRunRecoversPanic: an internal invariant violation mid-run must
// surface as a typed MachineError, never a host-process panic.
func TestRunRecoversPanic(t *testing.T) {
	p, cfg := addpairProg(t)
	p.Emit(isa.MemPort{Src: isa.Linear(0x1000, 16), Dst: p.In("A")})
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	m.Ports.In = nil // corrupt the machine: the MSE will index a nil slice
	_, err = runUnits(context.Background(), []*Machine{m}, &m.hb)
	var me *MachineError
	if !errors.As(err, &me) {
		t.Fatalf("run over corrupted state = %v, want a MachineError", err)
	}
	if me.Component == "" || me.Panic == nil {
		t.Fatalf("MachineError lacks attribution: %+v", me)
	}
}

// TestRecoverPanicAttribution: typed invariants name their component.
func TestRecoverPanicAttribution(t *testing.T) {
	m, err := NewMachine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	me := m.recoverPanic(port.Invariant{Port: "in0", Op: "push", Msg: "overflow"}, 42)
	if me.Component != "port" || me.Cycle != 42 {
		t.Fatalf("recoverPanic = %+v, want component port at cycle 42", me)
	}
	if me.Err == nil {
		t.Fatalf("recoverPanic dropped the underlying error: %+v", me)
	}
}
