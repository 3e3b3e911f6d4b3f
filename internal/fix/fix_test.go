package fix_test

import (
	"context"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/dfg"
	"softbrain/internal/fix"
	"softbrain/internal/isa"
	"softbrain/internal/lint"
	"softbrain/internal/workloads/ext"
)

// newProg builds a program configured with the two-input adder graph
// (A + B -> C, one word each), mirroring the lint test helper.
func newProg(t *testing.T) (*core.Program, core.Config) {
	t.Helper()
	cfg := core.DefaultConfig()
	b := dfg.NewBuilder("addpair")
	a := b.Input("A", 1)
	v := b.Input("B", 1)
	b.Output("C", b.N(dfg.Add(64), a.W(0), v.W(0)))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProgram("addpair")
	p.CompileAndConfigure(cfg.Fabric, g)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	return p, cfg
}

func emit(t *testing.T, p *core.Program, cmd isa.Command) {
	t.Helper()
	p.Emit(cmd)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
}

// mustClean asserts a program lints with zero findings.
func mustClean(t *testing.T, p *core.Program, cfg core.Config) {
	t.Helper()
	fs, err := lint.Check(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("fixed program still has findings: %v", fs)
	}
}

// TestSynthesizeWeakestScratch: a scratch read-after-write hazard gets
// the weakest sufficient barrier — SD_Barrier_Scratch_Wr, not
// SD_Barrier_All.
func TestSynthesizeWeakestScratch(t *testing.T) {
	p, cfg := newProg(t)
	emit(t, p, isa.MemScratch{Src: isa.Linear(0x1000, 8), ScratchAddr: 0})
	emit(t, p, isa.ScratchPort{Src: isa.Linear(0, 8), Dst: p.In("A")})
	emit(t, p, isa.MemPort{Src: isa.Linear(0x2000, 8), Dst: p.In("B")})
	emit(t, p, isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(0x3000, 8)})
	emit(t, p, isa.BarrierAll{})

	q, rep, err := fix.Fix(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Inserted) != 1 || len(rep.Removed) != 0 {
		t.Fatalf("report = %v, want exactly one insertion", rep)
	}
	e := rep.Inserted[0]
	if e.Kind != isa.KindBarrierScratchWr {
		t.Fatalf("inserted %v, want the weaker SD_Barrier_Scratch_Wr", e.Kind)
	}
	// Trace[0] is the SD_Config; the scratch read is trace[2], and the
	// barrier lands at its latest legal position, just before it.
	if e.Pos != 2 {
		t.Fatalf("inserted at trace[%d], want the latest legal position 2 (just before the read)", e.Pos)
	}
	mustClean(t, q, cfg)
	if len(p.Trace) != 6 {
		t.Fatal("Fix mutated its input program")
	}
}

// TestSynthesizeTrailing: a program whose last write is unordered gets
// the drain SD_Barrier_All appended.
func TestSynthesizeTrailing(t *testing.T) {
	p, cfg := newProg(t)
	emit(t, p, isa.MemPort{Src: isa.Linear(0x1000, 8), Dst: p.In("A")})
	emit(t, p, isa.MemPort{Src: isa.Linear(0x2000, 8), Dst: p.In("B")})
	emit(t, p, isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(0x3000, 8)})

	q, rep, err := fix.Fix(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Inserted) != 1 || rep.Inserted[0].Kind != isa.KindBarrierAll {
		t.Fatalf("report = %v, want one appended SD_Barrier_All", rep)
	}
	if got := q.Trace[len(q.Trace)-1].Cmd.Kind(); got != isa.KindBarrierAll {
		t.Fatalf("trace ends with %v, want SD_Barrier_All", got)
	}
	mustClean(t, q, cfg)
}

// TestEliminateRedundant: a barrier between disjoint streams is removed;
// the trailing drain barrier stays.
func TestEliminateRedundant(t *testing.T) {
	p, cfg := newProg(t)
	emit(t, p, isa.MemPort{Src: isa.Linear(0x1000, 8), Dst: p.In("A")})
	emit(t, p, isa.BarrierAll{}) // orders nothing: the streams are disjoint
	emit(t, p, isa.MemPort{Src: isa.Linear(0x2000, 8), Dst: p.In("B")})
	emit(t, p, isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(0x3000, 8)})
	emit(t, p, isa.BarrierAll{})

	q, rep, err := fix.Fix(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 1 || rep.Removed[0].Pos != 2 || len(rep.Inserted) != 0 {
		t.Fatalf("report = %+v, want exactly the trace[2] barrier removed", rep)
	}
	if rep.BarriersAfter != 1 {
		t.Fatalf("BarriersAfter = %d, want 1 (the trailing drain)", rep.BarriersAfter)
	}
	mustClean(t, q, cfg)
}

// TestEliminateKeepsNeeded: barriers that order actual conflicts — a
// memory write re-read through the scratchpad loader (not RMW-exempt),
// a scratch RAW, and the trailing drain — all survive elimination.
func TestEliminateKeepsNeeded(t *testing.T) {
	p, cfg := newProg(t)
	emit(t, p, isa.MemPort{Src: isa.Linear(0x1800, 8), Dst: p.In("A")})
	emit(t, p, isa.MemPort{Src: isa.Linear(0x2000, 8), Dst: p.In("B")})
	emit(t, p, isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(0x1000, 8)})
	emit(t, p, isa.BarrierAll{}) // orders the write before the scratch load re-reads it
	emit(t, p, isa.MemScratch{Src: isa.Linear(0x1000, 8), ScratchAddr: 0})
	emit(t, p, isa.BarrierScratchWr{}) // orders the scratch write before its read
	emit(t, p, isa.ScratchPort{Src: isa.Linear(0, 8), Dst: p.In("A")})
	emit(t, p, isa.MemPort{Src: isa.Linear(0x2800, 8), Dst: p.In("B")})
	emit(t, p, isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(0x3000, 8)})
	emit(t, p, isa.BarrierAll{}) // drains the trailing write

	q, rep, err := fix.Fix(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed() {
		t.Fatalf("report = %+v, want no change: every barrier is needed", rep)
	}
	mustClean(t, q, cfg)
}

// TestEliminateKeepsStrictIndirect: a barrier protecting a mem-staged
// (unboundable) gather is invisible to the normal analysis but must
// survive elimination via the strict-indirect race count.
func TestEliminateKeepsStrictIndirect(t *testing.T) {
	p, cfg := newProg(t)
	ind := p.IndirectIn(cfg.Fabric, 0)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	emit(t, p, isa.MemPort{Src: isa.Linear(0x2000, 8), Dst: p.In("B")})
	emit(t, p, isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(0x3000, 8)})
	emit(t, p, isa.MemPort{Src: isa.Linear(0x4000, 8), Dst: ind})
	emit(t, p, isa.BarrierAll{}) // orders the write before the data-dependent gather
	emit(t, p, isa.IndPortPort{
		Idx: ind, IdxElem: isa.Elem32,
		Offset: 0x3000, Scale: 4, DataElem: isa.Elem32, Count: 2,
		Dst: p.In("A"),
	})
	emit(t, p, isa.BarrierAll{})

	q, rep, err := fix.Fix(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The trailing barrier may go (the program ends with a read), but
	// the barrier at trace[4] between the write and the gather must stay.
	for _, e := range rep.Removed {
		if e.Pos == 4 {
			t.Fatalf("removed the gather-protecting barrier: %+v", rep)
		}
	}
	var protected bool
	for _, op := range q.Trace {
		if op.Cmd == nil {
			continue
		}
		if op.Cmd.Kind() == isa.KindBarrierAll {
			protected = true
		}
		if op.Cmd.Kind() == isa.KindIndPortPort && !protected {
			t.Fatal("fixed trace has no barrier before the data-dependent gather")
		}
	}
}

// TestFixIdempotent: fixing a fixed program changes nothing.
func TestFixIdempotent(t *testing.T) {
	p, cfg := newProg(t)
	emit(t, p, isa.MemScratch{Src: isa.Linear(0x1000, 8), ScratchAddr: 0})
	emit(t, p, isa.ScratchPort{Src: isa.Linear(0, 8), Dst: p.In("A")})
	emit(t, p, isa.MemPort{Src: isa.Linear(0x2000, 8), Dst: p.In("B")})
	emit(t, p, isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(0x3000, 8)})

	q, rep, err := fix.Fix(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Changed() {
		t.Fatal("first pass made no edits")
	}
	r, rep2, err := fix.Fix(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Changed() {
		t.Fatalf("second pass still edits: %v", rep2)
	}
	if len(r.Trace) != len(q.Trace) {
		t.Fatal("second pass changed the trace length")
	}
}

// serializeAll rebuilds p with an SD_Barrier_All after every
// non-barrier command — the over-serialized program of the fix study.
func serializeAll(p *core.Program) *core.Program {
	q := core.NewProgram(p.Name)
	for addr, blob := range p.Configs {
		q.Configs[addr] = blob
	}
	for _, op := range p.Trace {
		q.Trace = append(q.Trace, op)
		if op.Cmd != nil && !isa.IsBarrier(op.Cmd) {
			q.Trace = append(q.Trace, core.TraceOp{Cmd: isa.BarrierAll{}})
		}
	}
	return q
}

// TestEliminateScratchRoundTrip: the lut workload computes its gather
// indices on the fabric, parks them in the scratchpad, and reloads
// them across an SD_Config. Serializing it and fixing it must come
// back to the shipped single trailing barrier: every fence around the
// reload and the gather is removable precisely because the value
// tracking follows the indices through the scratch round trip and
// bounds the gather's footprint. Without that tracking the gather is
// opaque, strict indirect analysis pairs it with the result store, and
// the fences would have to stay. The fixed program must also still
// compute the right bytes, strictly cheaper than the serialized one.
func TestEliminateScratchRoundTrip(t *testing.T) {
	cfg := core.DefaultConfig()
	e, err := ext.Find("lut")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := e.Build(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	shipped := inst.Progs[0]
	shippedBarriers := fix.CountBarriers(shipped)

	serialized := serializeAll(shipped)
	fixed, rep, err := fix.Fix(serialized, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Inserted) != 0 {
		t.Fatalf("fix inserted barriers into the serialized lut: %+v", rep.Inserted)
	}
	if rep.BarriersAfter != shippedBarriers {
		t.Fatalf("fixed lut has %d barriers, shipped has %d: the scratch round-trip fences were not all proven removable\nreport: %v",
			rep.BarriersAfter, shippedBarriers, rep)
	}
	mustClean(t, fixed, cfg)

	run := func(progs []*core.Program) uint64 {
		t.Helper()
		cl, err := core.NewCluster(cfg, len(progs))
		if err != nil {
			t.Fatal(err)
		}
		inst.Init(cl.Mem)
		stats, err := cl.RunContext(context.Background(), progs)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Check(cl.Mem); err != nil {
			t.Fatal(err)
		}
		return stats.Cycles
	}
	serializedCy := run([]*core.Program{serialized})
	fixedCy := run([]*core.Program{fixed})
	if fixedCy >= serializedCy {
		t.Fatalf("eliminating the round-trip fences won no cycles: serialized %d, fixed %d", serializedCy, fixedCy)
	}
}
