package core

import (
	"context"
	"errors"
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

// schedModes names both scheduling modes as the external tests'
// span_test.go does, the per-cycle reference first: a hang's diagnosis
// is pinned once and must read the same under each.
var schedModes = []struct {
	name  string
	sched SchedMode
}{{"per-cycle", SchedPerCycle}, {"spans", SchedSpans}}

// runHang runs p expecting a deadlock and returns the diagnosis.
func runHang(t *testing.T, p *Program, cfg Config) *DeadlockError {
	t.Helper()
	_, err := runLone(newLone(t, cfg), p)
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run = %v, want a DeadlockError", err)
	}
	return de
}

// TestDiagnoseHangCorpus replays the linter's seeded-hazard corpus
// without repair and pins each hang's whole diagnosis: the cycle it is
// detected at, its class, the culprit stream and port, the wait chain
// and the machine snapshot. Each case runs under both scheduling modes
// against the one pinned text.
func TestDiagnoseHangCorpus(t *testing.T) {
	cases := []struct {
		name string
		prog func(t *testing.T) (*Program, Config)
		want string
	}{
		{"unequal-counts", func(t *testing.T) (*Program, Config) {
			// B receives one instance to A's two: the dataflow starves.
			p, cfg := addpairProg(t)
			p.Emit(isa.MemPort{Src: isa.Linear(0x1000, 16), Dst: p.In("A")})
			p.Emit(isa.MemPort{Src: isa.Linear(0x2000, 8), Dst: p.In("B")})
			p.Emit(isa.CleanPort{Src: p.Out("C"), Elem: isa.Elem64, Count: 2})
			return p, cfg
		}, `core: deadlock at cycle 503: port-undersupply (stream SD_Clean_Port#4, port in7)
  input port in7 is starved: no live, queued, or future stream supplies it
  wait chain:
    SD_Clean_Port#4 waits for data on out7
    -> out7 awaits a fabric instance
    -> fabric cannot fire: in7 lacks a full instance
  pc=4/4 queue=0 active-streams: mse=0 sse=0 rse=1 cgra-inflight=0
  in6: 8B buffered, 0B reserved, 504B space
`},
		{"overconsume", func(t *testing.T) (*Program, Config) {
			// One instance produces 8 bytes; consuming 16 deadlocks.
			p, cfg := addpairProg(t)
			p.Emit(isa.MemPort{Src: isa.Linear(0x1000, 8), Dst: p.In("A")})
			p.Emit(isa.MemPort{Src: isa.Linear(0x2000, 8), Dst: p.In("B")})
			p.Emit(isa.CleanPort{Src: p.Out("C"), Elem: isa.Elem64, Count: 2})
			return p, cfg
		}, `core: deadlock at cycle 503: port-undersupply (stream SD_Clean_Port#4, port in6)
  input port in6 is starved: no live, queued, or future stream supplies it
  wait chain:
    SD_Clean_Port#4 waits for data on out7
    -> out7 awaits a fabric instance
    -> fabric cannot fire: in6 lacks a full instance
  pc=4/4 queue=0 active-streams: mse=0 sse=0 rse=1 cgra-inflight=0
`},
		{"oversupply-unmapped", func(t *testing.T) (*Program, Config) {
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
			return p, cfg
		}, `core: deadlock at cycle 294: port-oversupply (stream SD_Const_Port#2, port in0)
  data delivered to in0 is never consumed: the port is not mapped by the active configuration and no indirect stream reads it
  wait chain:
    SD_Const_Port#2 waits for space in in0
  pc=2/2 queue=0 active-streams: mse=0 sse=0 rse=1 cgra-inflight=0
  in0: 512B buffered, 0B reserved, 0B space
`},
		{"starved-recurrence", func(t *testing.T) (*Program, Config) {
			// Footnote 1 of Section 3.3: the recurrence must produce the
			// first A, but A only arrives after Y fires.
			p, cfg := tinyProg(t)
			const n = 64
			p.Emit(isa.MemPort{Src: isa.Linear(0, n*8), Dst: p.In("B")})
			p.Emit(isa.PortPort{Src: p.Out("C"), Elem: isa.Elem64, Count: n, Dst: p.In("A")})
			p.Emit(isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(0x9000, n*8)})
			p.Emit(isa.BarrierAll{})
			return p, cfg
		}, `core: deadlock at cycle 495: starved-recurrence (stream SD_Port_Port#3, port in6)
  recurrence SD_Port_Port#3 cycles through the fabric but holds fewer elements than an instance needs to fire
  wait chain:
    SD_Mem_Port#2 waits for space in in7
    -> in7 is full and the fabric is not consuming it
    -> fabric cannot fire: in6 lacks a full instance
    -> SD_Port_Port#3 waits for data on out7
    -> out7 awaits a fabric instance
  pc=5/5 queue=2 active-streams: mse=1 sse=0 rse=1 cgra-inflight=0
  in7: 8B buffered, 0B reserved, 0B space
`},
		{"drained-unread", func(t *testing.T) (*Program, Config) {
			// The fabric's output is produced but nothing ever reads it;
			// with minimal buffering the residue wedges the suppliers.
			p, cfg := tinyProg(t)
			p.Emit(isa.MemPort{Src: isa.Linear(0x1000, 64), Dst: p.In("A")})
			p.Emit(isa.MemPort{Src: isa.Linear(0x2000, 64), Dst: p.In("B")})
			p.Emit(isa.BarrierAll{})
			return p, cfg
		}, `core: deadlock at cycle 509: drained-unread-output (stream SD_Mem_Port#2, port out7)
  out7 holds 8 bytes no live, queued, or future stream will ever read
  wait chain:
    SD_Mem_Port#2 waits for space in in6
    -> in6 is full and the fabric is not consuming it
    -> fabric cannot fire: out7 has no space
  pc=4/4 queue=1 active-streams: mse=2 sse=0 rse=0 cgra-inflight=0
  in6: 8B buffered, 0B reserved, 0B space
  in7: 8B buffered, 0B reserved, 0B space
  out7: 8B buffered
`},
		{"barrier-deadlock", func(t *testing.T) (*Program, Config) {
			// The supply for B sits in the trace behind a barrier that can
			// never complete, because the consumer it waits on needs B.
			p, cfg := addpairProg(t)
			p.Emit(isa.MemPort{Src: isa.Linear(0x1000, 64), Dst: p.In("A")})
			p.Emit(isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(0x3000, 64)})
			p.Emit(isa.BarrierAll{})
			p.Emit(isa.MemPort{Src: isa.Linear(0x2000, 64), Dst: p.In("B")})
			return p, cfg
		}, `core: deadlock at cycle 495: barrier-deadlock (stream SD_Barrier_All, port in7)
  the supply for in7 sits behind a pending SD_Barrier_All that cannot complete
  wait chain:
    SD_Port_Mem#3 waits for data on out7
    -> out7 awaits a fabric instance
    -> fabric cannot fire: in7 lacks a full instance
    -> supply for in7 (SD_Mem_Port) is at trace[4], not yet fetched
    -> core stalls behind SD_Barrier_All in the dispatch queue
    -> SD_Barrier_All waits for SD_Port_Mem#3 to complete
  pc=4/5 queue=1 active-streams: mse=1 sse=0 rse=0 cgra-inflight=0
  in6: 64B buffered, 0B reserved, 448B space
`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, cfg := c.prog(t)
			for _, mode := range schedModes {
				cfg.Sched = mode.sched
				if got := runHang(t, p, cfg).Error(); got != c.want {
					t.Errorf("%s: diagnosis drifted:\n got:\n%s\nwant:\n%s", mode.name, got, c.want)
				}
			}
		})
	}
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
// instead of 50000. The whole diagnosis is pinned, cycle included, and
// must read the same under both scheduling modes.
func TestQuiescenceBeatsWatchdog(t *testing.T) {
	// Scratchpad supplies avoid DRAM latency, so the hang sets in after
	// a few tens of cycles and the whole run — including detection —
	// must finish inside 1% of the watchdog budget.
	p, cfg := addpairProg(t)
	p.Emit(isa.ScratchPort{Src: isa.Linear(0, 16), Dst: p.In("A")})
	p.Emit(isa.ScratchPort{Src: isa.Linear(64, 8), Dst: p.In("B")})
	p.Emit(isa.CleanPort{Src: p.Out("C"), Elem: isa.Elem64, Count: 2})
	const want = `core: deadlock at cycle 294: port-undersupply (stream SD_Clean_Port#4, port in7)
  input port in7 is starved: no live, queued, or future stream supplies it
  wait chain:
    SD_Clean_Port#4 waits for data on out7
    -> out7 awaits a fabric instance
    -> fabric cannot fire: in7 lacks a full instance
  pc=4/4 queue=0 active-streams: mse=0 sse=0 rse=1 cgra-inflight=0
  in6: 8B buffered, 0B reserved, 504B space
`
	for _, mode := range schedModes {
		cfg.Sched = mode.sched
		de := runHang(t, p, cfg) // default watchdog: 50000 idle cycles
		if de.Class == HangWatchdog {
			t.Fatalf("%s: quiescent hang fell through to the watchdog: %v", mode.name, de)
		}
		if de.Cycle > defaultWatchdog/100 {
			t.Fatalf("%s: diagnosed at cycle %d, want < %d (1%% of the watchdog)", mode.name, de.Cycle, defaultWatchdog/100)
		}
		if got := de.Error(); got != want {
			t.Errorf("%s: diagnosis drifted:\n got:\n%s\nwant:\n%s", mode.name, got, want)
		}
	}
}

// TestWatchdogValidation: a watchdog shorter than the quiescence grace
// period or one command's issue cost is rejected up front.
func TestWatchdogValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 50
	if _, err := NewCluster(cfg, 1); err == nil || !strings.Contains(err.Error(), "WatchdogCycles") {
		t.Fatalf("NewCluster(watchdog=50) = %v, want a WatchdogCycles error", err)
	}
	cfg.WatchdogCycles = 2000
	if _, err := NewCluster(cfg, 1); err != nil {
		t.Fatalf("NewCluster(watchdog=2000) = %v", err)
	}
}

// TestRunRecoversPanic: an internal invariant violation mid-run must
// surface as a typed MachineError, never a host-process panic.
func TestRunRecoversPanic(t *testing.T) {
	p, cfg := addpairProg(t)
	p.Emit(isa.MemPort{Src: isa.Linear(0x1000, 16), Dst: p.In("A")})
	cl := newLone(t, cfg)
	m := cl.Units[0]
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	m.Ports.In = nil // corrupt the machine: the MSE will index a nil slice
	_, err := runUnits(context.Background(), cl.Units, &cl.hb)
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
	m := newLone(t, DefaultConfig()).Units[0]
	me := m.recoverPanic(port.Invariant{Port: "in0", Op: "push", Msg: "overflow"}, 42)
	if me.Component != "port" || me.Cycle != 42 {
		t.Fatalf("recoverPanic = %+v, want component port at cycle 42", me)
	}
	if me.Err == nil {
		t.Fatalf("recoverPanic dropped the underlying error: %+v", me)
	}
}
