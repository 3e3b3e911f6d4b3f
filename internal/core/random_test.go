package core

import (
	"fmt"
	"math/rand"
	"testing"

	"softbrain/internal/dfg"
	"softbrain/internal/isa"
)

// TestRandomProgramsMatchEvaluator is the end-to-end property test: for
// random schedulable DFGs and random input data, a generated stream-
// dataflow program (memory and constant streams in, memory stores out)
// must produce exactly what the functional evaluator produces. It
// covers the compiler, dispatcher, engines, ports and CGRA together.
func TestRandomProgramsMatchEvaluator(t *testing.T) {
	cfg := DefaultConfig()
	trials := 25
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		if err := runRandomProgram(cfg, rng); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func runRandomProgram(cfg Config, rng *rand.Rand) error {
	g, err := randomStreamableGraph(rng)
	if err != nil {
		return err
	}
	instances := uint64(8 + rng.Intn(120))

	cl, err := NewCluster(cfg, 1)
	if err != nil {
		return err
	}

	// Generate input data: one array per input port, or a constant.
	type inSrc struct {
		constVal uint64
		useConst bool
		addr     uint64
		data     []uint64
	}
	base := uint64(0x10000)
	alloc := func(words uint64) uint64 {
		a := base
		base += (words*8 + 63) &^ 63
		return a
	}
	srcs := make([]inSrc, len(g.Ins))
	for pi, in := range g.Ins {
		words := instances * uint64(in.Width)
		if in.Width == 1 && rng.Intn(3) == 0 {
			srcs[pi] = inSrc{useConst: true, constVal: uint64(rng.Intn(1000))}
			continue
		}
		s := inSrc{addr: alloc(words), data: make([]uint64, words)}
		for i := range s.data {
			s.data[i] = uint64(rng.Intn(10000))
		}
		for i, v := range s.data {
			cl.Mem.WriteU64(s.addr+uint64(8*i), v)
		}
		srcs[pi] = s
	}
	outAddrs := make([]uint64, len(g.Outs))
	for po, out := range g.Outs {
		outAddrs[po] = alloc(instances * uint64(out.Width()))
	}

	p := NewProgram("random")
	p.CompileAndConfigure(cfg.Fabric, g)
	for pi, in := range g.Ins {
		if srcs[pi].useConst {
			p.Emit(isa.ConstPort{Value: srcs[pi].constVal, Elem: isa.Elem64, Count: instances, Dst: p.In(in.Name)})
		} else {
			p.Emit(isa.MemPort{
				Src: isa.Linear(srcs[pi].addr, instances*uint64(in.Width)*8),
				Dst: p.In(in.Name),
			})
		}
	}
	for po, out := range g.Outs {
		p.Emit(isa.PortMem{
			Src: p.Out(out.Name),
			Dst: isa.Linear(outAddrs[po], instances*uint64(out.Width())*8),
		})
	}
	p.Emit(isa.BarrierAll{})
	if err := p.Err(); err != nil {
		// Some random graphs legitimately exceed fabric resources.
		return nil
	}

	if _, err := runLone(cl, p); err != nil {
		return fmt.Errorf("run: %w\n%s", err, g.String())
	}

	// Golden: feed the evaluator the same streams.
	ev, err := dfg.NewEvaluator(g)
	if err != nil {
		return err
	}
	cursor := make([]int, len(g.Ins))
	for inst := uint64(0); inst < instances; inst++ {
		ins := make([][]uint64, len(g.Ins))
		for pi, in := range g.Ins {
			ins[pi] = make([]uint64, in.Width)
			for w := 0; w < in.Width; w++ {
				if srcs[pi].useConst {
					ins[pi][w] = srcs[pi].constVal
				} else {
					ins[pi][w] = srcs[pi].data[cursor[pi]]
					cursor[pi]++
				}
			}
		}
		outs, err := ev.Eval(ins)
		if err != nil {
			return err
		}
		for po, out := range g.Outs {
			for w := 0; w < out.Width(); w++ {
				addr := outAddrs[po] + (inst*uint64(out.Width())+uint64(w))*8
				if got := cl.Mem.ReadU64(addr); got != outs[po][w] {
					return fmt.Errorf("out %s inst %d word %d = %d, want %d\n%s",
						out.Name, inst, w, got, outs[po][w], g.String())
				}
			}
		}
	}
	return nil
}

// randomStreamableGraph builds a random DAG whose every output is
// 64-bit full-word (so memory comparison is exact) and whose ports fit
// the default fabric.
func randomStreamableGraph(rng *rand.Rand) (*dfg.Graph, error) {
	b := dfg.NewBuilder("rnd")
	nIns := 1 + rng.Intn(3)
	var avail []dfg.Ref
	for i := 0; i < nIns; i++ {
		w := 1 + rng.Intn(3)
		in := b.Input(fmt.Sprintf("I%d", i), w)
		for j := 0; j < w; j++ {
			avail = append(avail, in.W(j))
		}
	}
	ops := []dfg.Op{
		dfg.Add(64), dfg.Sub(64), dfg.Mul(64), dfg.Min(64), dfg.Max(64),
		dfg.Abs(64), dfg.Xor(64), dfg.And(64), dfg.Or(64), dfg.Sel(64),
		dfg.Eq(64), dfg.Lt(64), dfg.Add(16), dfg.Mul(16), dfg.RedAdd(16),
		dfg.Ashr(64),
	}
	n := 1 + rng.Intn(10)
	for i := 0; i < n; i++ {
		op := ops[rng.Intn(len(ops))]
		args := make([]dfg.Ref, op.Arity())
		for j := range args {
			if rng.Intn(6) == 0 {
				args[j] = dfg.ImmRef(uint64(rng.Intn(50)))
			} else {
				args[j] = avail[rng.Intn(len(avail))]
			}
		}
		avail = append(avail, b.N(op, args...))
	}
	// 1-2 output ports of width 1-2 from the most recent values.
	nOuts := 1 + rng.Intn(2)
	for o := 0; o < nOuts; o++ {
		w := 1 + rng.Intn(2)
		var srcs []dfg.Ref
		for k := 0; k < w; k++ {
			srcs = append(srcs, avail[len(avail)-1-rng.Intn(min(4, len(avail)))])
		}
		b.Output(fmt.Sprintf("O%d", o), srcs...)
	}
	return b.Build()
}

// TestMultiLevelIndirection chains two SD_IndPort_Port streams to gather
// a[b[c[i]]], the pattern Section 3.3 describes for indirect chaining.
func TestMultiLevelIndirection(t *testing.T) {
	cfg := DefaultConfig()
	cl := newLone(t, cfg)
	bld := dfg.NewBuilder("passthrough")
	x := bld.Input("X", 1)
	bld.Output("Y", bld.N(dfg.Abs(64), x.W(0)))
	g := mustBuild(t, bld)

	const n = 32
	const cAddr, bAddr, aAddr, rAddr = 0x1000, 0x2000, 0x3000, 0x4000
	rng := rand.New(rand.NewSource(9))
	cArr := make([]uint32, n)
	bArr := make([]uint32, n)
	aArr := make([]int64, n)
	for i := 0; i < n; i++ {
		cArr[i] = uint32(rng.Intn(n))
		bArr[i] = uint32(rng.Intn(n))
		aArr[i] = int64(rng.Intn(2000) - 1000)
		cl.Mem.WriteUint(cAddr+uint64(4*i), 4, uint64(cArr[i]))
		cl.Mem.WriteUint(bAddr+uint64(4*i), 4, uint64(bArr[i]))
		cl.Mem.WriteU64(aAddr+uint64(8*i), uint64(aArr[i]))
	}

	p := NewProgram("chain")
	p.CompileAndConfigure(cfg.Fabric, g)
	ind0 := p.IndirectIn(cfg.Fabric, 0)
	ind1 := p.IndirectIn(cfg.Fabric, 1)
	// c[i] into ind0; gather b[c[i]] into ind1; gather a[b[c[i]]] into X.
	p.Emit(isa.MemPort{Src: isa.Linear(cAddr, n*4), Dst: ind0})
	p.Emit(isa.IndPortPort{
		Idx: ind0, IdxElem: isa.Elem32, Offset: bAddr, Scale: 4,
		DataElem: isa.Elem32, Count: n, Dst: ind1,
	})
	p.Emit(isa.IndPortPort{
		Idx: ind1, IdxElem: isa.Elem32, Offset: aAddr, Scale: 8,
		DataElem: isa.Elem64, Count: n, Dst: p.In("X"),
	})
	p.Emit(isa.PortMem{Src: p.Out("Y"), Dst: isa.Linear(rAddr, n*8)})
	p.Emit(isa.BarrierAll{})

	if _, err := runLone(cl, p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := aArr[bArr[cArr[i]]]
		if want < 0 {
			want = -want
		}
		if got := int64(cl.Mem.ReadU64(rAddr + uint64(8*i))); got != want {
			t.Errorf("r[%d] = %d, want %d (a[b[c[%d]]])", i, got, want, i)
		}
	}
}
