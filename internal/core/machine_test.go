package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"softbrain/internal/cgra"
	"softbrain/internal/dfg"
	"softbrain/internal/faults"
	"softbrain/internal/isa"
	"softbrain/internal/obs"
)

// mustBuild finalizes a graph that the test constructed to be valid.
func mustBuild(t testing.TB, b *dfg.Builder) *dfg.Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// dotProdGraph is the Figure 3a/4 dot-product DFG.
func dotProdGraph(t testing.TB) *dfg.Graph {
	t.Helper()
	b := dfg.NewBuilder("dotprod")
	a := b.Input("A", 3)
	bb := b.Input("B", 3)
	var prods []dfg.Ref
	for i := 0; i < 3; i++ {
		prods = append(prods, b.N(dfg.Mul(64), a.W(i), bb.W(i)))
	}
	b.Output("C", b.ReduceTree(dfg.Add(64), prods...))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newLone builds a one-unit cluster, the way every lone unit runs.
func newLone(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	cl, err := NewCluster(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// runLone runs p on one-unit cluster cl.
func runLone(cl *Cluster, p *Program) (*Stats, error) {
	return cl.RunContext(context.Background(), []*Program{p})
}

// TestFigure4DotProduct runs the paper's first example program: load
// a[0:n] and b[0:n] to ports, store the per-instance dot products, and
// barrier. Output must match the golden computation exactly.
func TestFigure4DotProduct(t *testing.T) {
	cfg := DefaultConfig()
	cl := newLone(t, cfg)
	const n = 48 // words per input; 16 instances of width 3
	const aAddr, bAddr, rAddr = 0x1000, 0x2000, 0x3000
	for i := uint64(0); i < n; i++ {
		cl.Mem.WriteU64(aAddr+8*i, i+1)
		cl.Mem.WriteU64(bAddr+8*i, 2*i+3)
	}

	p := NewProgram("dotprod")
	p.CompileAndConfigure(cfg.Fabric, dotProdGraph(t))
	p.Emit(isa.MemPort{Src: isa.Linear(aAddr, n*8), Dst: p.In("A")})
	p.Emit(isa.MemPort{Src: isa.Linear(bAddr, n*8), Dst: p.In("B")})
	p.Emit(isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(rAddr, n/3*8)})
	p.Emit(isa.BarrierAll{})

	stats, err := runLone(cl, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n/3; i++ {
		var want uint64
		for j := uint64(0); j < 3; j++ {
			k := 3*i + j
			want += (k + 1) * (2*k + 3)
		}
		if got := cl.Mem.ReadU64(rAddr + 8*i); got != want {
			t.Errorf("r[%d] = %d, want %d", i, got, want)
		}
	}
	if stats.Instances != n/3 {
		t.Errorf("Instances = %d, want %d", stats.Instances, n/3)
	}
	if stats.Cycles == 0 || stats.Commands != 4 {
		t.Errorf("stats look wrong: %+v", stats)
	}
}

// classifierGraph is the Figure 6 DFG: four 4-way 16-bit multipliers,
// reduction, accumulator with reset stream, sigmoid, 16-bit output.
func classifierGraph(t testing.TB) *dfg.Graph {
	t.Helper()
	b := dfg.NewBuilder("classifier")
	s := b.Input("S", 4)
	n := b.Input("N", 4)
	r := b.Input("R", 1)
	var reds []dfg.Ref
	for i := 0; i < 4; i++ {
		m := b.N(dfg.Mul(16), s.W(i), n.W(i))
		reds = append(reds, b.N(dfg.RedAdd(16), m))
	}
	sum := b.ReduceTree(dfg.Add(64), reds...)
	acc := b.N(dfg.Acc(64), sum, r.W(0))
	b.OutputElem("C", 2, b.N(dfg.Sig(16), acc))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sigmoid16 mirrors the hardware's Q8.8 piecewise sigmoid for goldens.
func sigmoid16(x int64) uint16 {
	switch {
	case x <= -1024:
		return 0
	case x >= 1024:
		return 256
	default:
		return uint16(128 + x/8)
	}
}

// TestFigure6Classifier runs the full neural classifier program: weights
// stream from memory, input neurons stage in the scratchpad behind a
// scratch-write barrier, the accumulator is driven by a constant reset
// stream, partial sums are cleaned, and 16-bit outputs stored.
func TestFigure6Classifier(t *testing.T) {
	cfg := DNNConfig()
	cl := newLone(t, cfg)
	const (
		Ni = 64 // input neurons
		Nn = 4  // output neurons
	)
	const elemsPerInst = 16 // 4 words x 4 lanes of 16 bits
	instPerNeuron := Ni / elemsPerInst

	const synAddr, inAddr, outAddr = 0x10000, 0x20000, 0x30000
	synapse := make([][]int16, Nn)
	neuron := make([]int16, Ni)
	for i := range neuron {
		neuron[i] = int16(i%7 - 3)
		cl.Mem.WriteUint(inAddr+2*uint64(i), 2, uint64(uint16(neuron[i])))
	}
	for o := range synapse {
		synapse[o] = make([]int16, Ni)
		for i := range synapse[o] {
			w := int16((o*31+i*13)%11 - 5)
			synapse[o][i] = w
			cl.Mem.WriteUint(synAddr+uint64(o*Ni*2+i*2), 2, uint64(uint16(w)))
		}
	}

	p := NewProgram("classifier")
	p.CompileAndConfigure(cfg.Fabric, classifierGraph(t))
	// Load all synapses to Port_S and input neurons to the scratchpad.
	p.Emit(isa.MemPort{Src: isa.Linear(synAddr, Nn*Ni*2), Dst: p.In("S")})
	p.Emit(isa.MemScratch{Src: isa.Linear(inAddr, Ni*2), ScratchAddr: 0})
	p.Emit(isa.BarrierScratchWr{})
	// Re-read the neurons from scratch once per output neuron.
	p.Emit(isa.ScratchPort{Src: isa.Repeat(0, Ni*2, Nn), Dst: p.In("N")})
	for n := 0; n < Nn; n++ {
		p.Emit(isa.ConstPort{Value: 0, Elem: isa.Elem64, Count: uint64(instPerNeuron - 1), Dst: p.In("R")})
		p.Emit(isa.ConstPort{Value: 1, Elem: isa.Elem64, Count: 1, Dst: p.In("R")})
		p.Emit(isa.CleanPort{Src: p.Out("C"), Elem: isa.Elem16, Count: uint64(instPerNeuron - 1)})
		p.Emit(isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(outAddr+2*uint64(n), 2)})
		p.Delay(4)
	}
	p.Emit(isa.BarrierAll{})

	stats, err := runLone(cl, p)
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < Nn; o++ {
		var sum int64
		for i := 0; i < Ni; i++ {
			sum += int64(synapse[o][i]) * int64(neuron[i])
		}
		want := sigmoid16(sum)
		got := uint16(cl.Mem.ReadUint(outAddr+2*uint64(o), 2))
		if got != want {
			t.Errorf("neuron_n[%d] = %d, want %d (sum %d)", o, got, want, sum)
		}
	}
	if stats.Instances != uint64(Nn*instPerNeuron) {
		t.Errorf("Instances = %d, want %d", stats.Instances, Nn*instPerNeuron)
	}
	if stats.ScratchBytesWrit == 0 || stats.ScratchBytesRead == 0 {
		t.Error("scratchpad was not exercised")
	}
}

// TestRecurrenceReduction sums a long vector with SD_Port_Port feeding
// the accumulated value back per block.
func TestRecurrenceReduction(t *testing.T) {
	cfg := DefaultConfig()
	cl := newLone(t, cfg)
	// DFG: acc += redadd of 4 words per instance; recurrence not needed
	// for direct accumulation, so use Port_Port for a two-phase sum:
	// phase 1 reduces blocks, phase 2 re-consumes block sums.
	b := dfg.NewBuilder("blocksum")
	v := b.Input("V", 4)
	r := b.Input("R", 1)
	sum := b.ReduceTree(dfg.Add(64), v.W(0), v.W(1), v.W(2), v.W(3))
	b.Output("S", b.N(dfg.Acc(64), sum, r.W(0)))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	const n = 64 // words
	const vAddr, rAddr = 0x1000, 0x8000
	var want uint64
	for i := uint64(0); i < n; i++ {
		cl.Mem.WriteU64(vAddr+8*i, i*i+1)
		want += i*i + 1
	}
	blocks := uint64(n / 4)

	p := NewProgram("blocksum")
	p.CompileAndConfigure(cfg.Fabric, g)
	p.Emit(isa.MemPort{Src: isa.Linear(vAddr, n*8), Dst: p.In("V")})
	// Never reset within phase 1; the final value is the total.
	p.Emit(isa.ConstPort{Value: 0, Elem: isa.Elem64, Count: blocks, Dst: p.In("R")})
	p.Emit(isa.CleanPort{Src: p.Out("S"), Elem: isa.Elem64, Count: blocks - 1})
	p.Emit(isa.PortMem{Src: p.Out("S"), Dst: isa.Linear(rAddr, 8)})
	p.Emit(isa.BarrierAll{})
	if _, err := runLone(cl, p); err != nil {
		t.Fatal(err)
	}
	if got := cl.Mem.ReadU64(rAddr); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

// TestPortPortRecurrence exercises the recurrence stream engine inside a
// full program: stream data out of one DFG port and back into another.
func TestPortPortRecurrence(t *testing.T) {
	cfg := DefaultConfig()
	cl := newLone(t, cfg)
	// y = (a+b); second pass: z = y*2 via recurrence of Y into port A2.
	b := dfg.NewBuilder("twopass")
	a := b.Input("A", 1)
	bb := b.Input("B", 1)
	b.Output("Y", b.N(dfg.Add(64), a.W(0), bb.W(0)))
	g := mustBuild(t, b)

	const n = 16
	const aAddr, bAddr, zAddr = 0x1000, 0x2000, 0x3000
	for i := uint64(0); i < n; i++ {
		cl.Mem.WriteU64(aAddr+8*i, 10+i)
		cl.Mem.WriteU64(bAddr+8*i, 100*i)
	}
	p := NewProgram("twopass")
	p.CompileAndConfigure(cfg.Fabric, g)
	// Pass 1: y = a + b -> recurrence back to port A; b gets a constant 5.
	p.Emit(isa.MemPort{Src: isa.Linear(aAddr, n*8), Dst: p.In("A")})
	p.Emit(isa.MemPort{Src: isa.Linear(bAddr, n*8), Dst: p.In("B")})
	p.Emit(isa.PortPort{Src: p.Out("Y"), Elem: isa.Elem64, Count: n, Dst: p.In("A")})
	p.Emit(isa.ConstPort{Value: 5, Elem: isa.Elem64, Count: n, Dst: p.In("B")})
	p.Emit(isa.PortMem{Src: p.Out("Y"), Dst: isa.Linear(zAddr, n*8)})
	p.Emit(isa.BarrierAll{})
	if _, err := runLone(cl, p); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		want := (10 + i) + 100*i + 5
		if got := cl.Mem.ReadU64(zAddr + 8*i); got != want {
			t.Errorf("z[%d] = %d, want %d", i, got, want)
		}
	}
}

// TestDeadlockDetection reproduces footnote 1 of Section 3.3: a
// recurrence longer than the destination port's buffering deadlocks, and
// the machine reports it instead of hanging.
func TestDeadlockDetection(t *testing.T) {
	cfg := DefaultConfig()
	f := cgra.NewFabric(5, 4, dfg.FUAlu, dfg.FUMul)
	for i := range f.InPorts {
		if !f.InPorts[i].Indirect {
			f.InPorts[i].Depth = f.InPorts[i].Width // minimal buffering
		}
	}
	cfg.Fabric = f
	cfg.WatchdogCycles = 2000
	cl := newLone(t, cfg)
	b := dfg.NewBuilder("loop")
	a := b.Input("A", 1)
	bb := b.Input("B", 1)
	b.Output("Y", b.N(dfg.Add(64), a.W(0), bb.W(0)))
	g := mustBuild(t, b)

	const n = 64
	p := NewProgram("deadlock")
	p.CompileAndConfigure(cfg.Fabric, g)
	p.Emit(isa.MemPort{Src: isa.Linear(0, n*8), Dst: p.In("B")})
	// The recurrence must produce the first A, but A only arrives after
	// Y fires: a cyclic wait the tiny port cannot absorb.
	p.Emit(isa.PortPort{Src: p.Out("Y"), Elem: isa.Elem64, Count: n, Dst: p.In("A")})
	p.Emit(isa.PortMem{Src: p.Out("Y"), Dst: isa.Linear(0x9000, n*8)})
	p.Emit(isa.BarrierAll{})

	_, err := runLone(cl, p)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
}

// TestProgramErrors checks construction-time validation.
func TestProgramErrors(t *testing.T) {
	p := NewProgram("bad")
	p.In("X") // before Configure
	if p.Err() == nil {
		t.Error("In before Configure not reported")
	}
	if err := newLone(t, DefaultConfig()).Units[0].Load(p); err == nil {
		t.Error("Load accepted a broken program")
	}

	p2 := NewProgram("bad2")
	p2.CompileAndConfigure(DefaultConfig().Fabric, dotProdGraph(t))
	p2.In("NOPE")
	if p2.Err() == nil {
		t.Error("unknown port name not reported")
	}
	p3 := NewProgram("bad3")
	p3.Emit(isa.MemPort{Src: isa.Affine{AccessSize: 1 << 22, Stride: 1, Strides: 1}, Dst: 0})
	if p3.Err() == nil {
		t.Error("unencodable command not reported")
	}
}

// TestClusterSharesBandwidth: two units each streaming from memory take
// longer per unit than one unit alone, because the memory interface
// accepts one request per cycle in total.
func TestClusterSharesBandwidth(t *testing.T) {
	mkProg := func(f *cgra.Fabric, base uint64) *Program {
		b := dfg.NewBuilder("copy")
		a := b.Input("A", 8)
		var outs []dfg.Ref
		for i := 0; i < 8; i++ {
			outs = append(outs, b.N(dfg.Add(64), a.W(i), dfg.ImmRef(0)))
		}
		b.Output("Y", outs...)
		g := mustBuild(t, b)
		p := NewProgram("copy")
		p.CompileAndConfigure(f, g)
		const n = 4096
		p.Emit(isa.MemPort{Src: isa.Linear(base, n), Dst: p.In("A")})
		p.Emit(isa.PortMem{Src: p.Out("Y"), Dst: isa.Linear(base+0x100000, n)})
		p.Emit(isa.BarrierAll{})
		return p
	}
	cfg := DefaultConfig()
	// Make DRAM bandwidth the bottleneck so sharing is visible.
	cfg.Mem.MissInterval = 16
	single, err := NewCluster(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := runLone(single, mkProg(cfg.Fabric, 0x100000))
	if err != nil {
		t.Fatal(err)
	}
	quad, err := NewCluster(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := quad.RunContext(context.Background(), []*Program{
		mkProg(cfg.Fabric, 0x1000000), mkProg(cfg.Fabric, 0x2000000),
		mkProg(cfg.Fabric, 0x3000000), mkProg(cfg.Fabric, 0x4000000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s4.Cycles <= s1.Cycles+s1.Cycles/2 {
		t.Errorf("4 units (%d cycles) should contend vs 1 unit (%d cycles)", s4.Cycles, s1.Cycles)
	}
	if s4.Instances != 4*s1.Instances {
		t.Errorf("instances: %d vs 4x%d", s4.Instances, s1.Instances)
	}
}

// TestStatsAdd checks aggregation rules.
func TestStatsAdd(t *testing.T) {
	a := &Stats{Cycles: 10, FUOps: 5, Commands: 2}
	b := &Stats{Cycles: 30, FUOps: 7, Commands: 1}
	a.Add(b)
	if a.Cycles != 30 || a.FUOps != 12 || a.Commands != 3 {
		t.Errorf("Add wrong: %+v", a)
	}
}

// TestExecutionTrace runs a traced program under every scheduling mode
// and checks the registry recorded the stream lifetimes and the Busy
// lanes of the Figure 4(b) rendering path, identically in every mode.
func TestExecutionTrace(t *testing.T) {
	const n = 24
	p := NewProgram("traced")
	p.CompileAndConfigure(DefaultConfig().Fabric, dotProdGraph(t))
	p.Emit(isa.MemPort{Src: isa.Linear(0x1000, n*8), Dst: p.In("A")})
	p.Emit(isa.MemPort{Src: isa.Linear(0x2000, n*8), Dst: p.In("B")})
	p.Emit(isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(0x3000, n/3*8)})
	p.Emit(isa.BarrierAll{})
	var ref string
	for _, sched := range []SchedMode{SchedPerCycle, SchedSpans} {
		cfg := DefaultConfig()
		cfg.Sched = sched
		cl := newLone(t, cfg)
		cl.EnableMetrics(obs.Options{Slices: obs.DefaultSlices})
		for i := uint64(0); i < n; i++ {
			cl.Mem.WriteU64(0x1000+8*i, i)
			cl.Mem.WriteU64(0x2000+8*i, i)
		}
		stats, err := runLone(cl, p)
		if err != nil {
			t.Fatal(err)
		}
		in := cl.TraceInputs(stats.Cycles)[0]
		if len(in.Spans) != 4 { // config + 2 loads + 1 store
			t.Fatalf("mode %d: %d spans, want 4", sched, len(in.Spans))
		}
		for _, s := range in.Spans {
			if !s.Done || s.Completed < s.Issued || s.Issued < s.Enqueued {
				t.Errorf("mode %d: inconsistent span %+v", sched, s)
			}
		}
		g := obs.Gantt(in, 80)
		for _, lane := range []string{"core", "mse", "cgra"} {
			if !strings.Contains(laneRow(g, lane), "#") {
				t.Errorf("mode %d: Gantt lane %s shows no activity:\n%s", sched, lane, g)
			}
		}
		if ref == "" {
			ref = g
		} else if g != ref {
			t.Errorf("mode %d: Gantt differs from per-cycle:\n%s\nper-cycle:\n%s", sched, g, ref)
		}
	}
}

// laneRow returns the Gantt row of the named lane, "" when absent.
func laneRow(gantt, lane string) string {
	for _, row := range strings.Split(gantt, "\n") {
		if strings.HasPrefix(row, lane+" ") {
			return row
		}
	}
	return ""
}

// TestControlInstructionReduction checks the claim around Figure 6: the
// stream-dataflow version of the classifier executes roughly a factor
// of Ni fewer control instructions than the scalar loop (which runs
// ~Ni*Nn iterations of several instructions each).
func TestControlInstructionReduction(t *testing.T) {
	const Ni, Nn = 256, 8
	p := NewProgram("classifier")
	p.CompileAndConfigure(DNNConfig().Fabric, classifierGraph(t))
	p.Emit(isa.MemPort{Src: isa.Linear(0x10000, Nn*Ni*2), Dst: p.In("S")})
	p.Emit(isa.MemScratch{Src: isa.Linear(0x20000, Ni*2), ScratchAddr: 0})
	p.Emit(isa.BarrierScratchWr{})
	p.Emit(isa.ScratchPort{Src: isa.Repeat(0, Ni*2, Nn), Dst: p.In("N")})
	inst := uint64(Ni / 16)
	for n := 0; n < Nn; n++ {
		p.Emit(isa.ConstPort{Value: 0, Elem: isa.Elem64, Count: inst - 1, Dst: p.In("R")})
		p.Emit(isa.ConstPort{Value: 1, Elem: isa.Elem64, Count: 1, Dst: p.In("R")})
		p.Emit(isa.CleanPort{Src: p.Out("C"), Elem: isa.Elem16, Count: inst - 1})
		p.Emit(isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(0x30000+2*uint64(n), 2)})
	}
	p.Emit(isa.BarrierAll{})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	words := p.CommandWords()
	scalarInstrs := uint64(Ni) * Nn * 6 // mul, add, two index ops, compare, branch
	ratio := float64(scalarInstrs) / float64(words)
	t.Logf("control instructions: %d stream-command words vs ~%d scalar (%.0fx reduction)",
		words, scalarInstrs, ratio)
	if ratio < Ni/4 {
		t.Errorf("instruction reduction only %.0fx; paper claims roughly Ni=%d", ratio, Ni)
	}
}

// TestFaultStatsPerRun checks that FaultStats reports the current run
// alone: a cold and a warm run of one unit each draw faults, and
// their counts sum to the injector's lifetime count (the random stream
// itself spans the runs).
func TestFaultStatsPerRun(t *testing.T) {
	cfg := DefaultConfig()
	fc, err := faults.Profile("delay", 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &fc
	cl := newLone(t, cfg)
	const n = 480
	p := NewProgram("dotprod")
	p.CompileAndConfigure(cfg.Fabric, dotProdGraph(t))
	p.Emit(isa.MemPort{Src: isa.Linear(0x1000, n*8), Dst: p.In("A")})
	p.Emit(isa.MemPort{Src: isa.Linear(0x8000, n*8), Dst: p.In("B")})
	p.Emit(isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(0x10000, n/3*8)})
	p.Emit(isa.BarrierAll{})
	var runs []faults.Stats
	for i := 0; i < 2; i++ {
		if _, err := runLone(cl, p); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, cl.FaultStats())
	}
	cold, warm := runs[0], runs[1]
	if cold.MemDelays == 0 || warm.MemDelays == 0 {
		t.Fatalf("want delays in both runs: cold %v, warm %v", cold, warm)
	}
	if life := cl.Units[0].faults.Stats(); life.Since(cold) != warm {
		t.Errorf("cold %v + warm %v != lifetime %v", cold, warm, life)
	}
}

// fakeCmd is a command the binary ISA cannot encode.
type fakeCmd struct{}

func (fakeCmd) Kind() isa.Kind { return isa.KindBarrierAll }
func (fakeCmd) Words() int     { return 1 }
func (fakeCmd) String() string { return "fake" }

// TestProgramSeal checks the once-per-program ISA round trip: Load
// seals the program, the emitters reopen the seal, and a program that
// fails the round trip keeps failing on every Load.
func TestProgramSeal(t *testing.T) {
	m := newLone(t, DefaultConfig()).Units[0]
	p := NewProgram("sealed")
	p.Emit(isa.BarrierAll{})
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if !p.sealed {
		t.Error("Load left the program unsealed")
	}
	p.Delay(3)
	if p.sealed {
		t.Error("Delay did not reopen the seal")
	}

	bad := NewProgram("bad")
	bad.Trace = append(bad.Trace, TraceOp{Cmd: fakeCmd{}})
	first := m.Load(bad)
	if first == nil {
		t.Fatal("unencodable program loaded")
	}
	if again := m.Load(bad); again == nil || again.Error() != first.Error() {
		t.Errorf("second Load = %v, want %v", again, first)
	}
}

// TestConfigureContentAddress checks that a bitstream's slot is a
// content address: configuring the same schedule twice in one program
// reuses its slot, and a slot the program already fills with other
// bytes is probed past to the next one.
func TestConfigureContentAddress(t *testing.T) {
	f := DefaultConfig().Fabric
	p := NewProgram("twice")
	p.CompileAndConfigure(f, dotProdGraph(t))
	p.CompileAndConfigure(f, dotProdGraph(t))
	if len(p.Configs) != 1 {
		t.Fatalf("equal bitstreams took %d slots, want 1", len(p.Configs))
	}
	home := p.Trace[0].Cmd.(isa.Config).Addr
	if again := p.Trace[1].Cmd.(isa.Config).Addr; again != home {
		t.Errorf("second SD_Config at %#x, want %#x", again, home)
	}

	q := NewProgram("probed")
	q.Configs[home] = []byte{0}
	q.CompileAndConfigure(f, dotProdGraph(t))
	next := ConfigSpace + (home-ConfigSpace+ConfigSlotBytes)%(configSlots*ConfigSlotBytes)
	if got := q.Trace[0].Cmd.(isa.Config).Addr; got != next {
		t.Errorf("SD_Config at %#x past a taken slot, want %#x", got, next)
	}
	if !bytes.Equal(q.Configs[next], p.Configs[home]) {
		t.Error("the probed slot does not hold the bitstream")
	}
}
