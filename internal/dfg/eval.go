package dfg

import (
	"encoding/binary"
	"fmt"
)

// Evaluator executes a Graph functionally, one computation instance at a
// time, holding accumulator state between instances exactly as the
// processing elements do on hardware. It is used both by the CGRA timing
// model (which wraps it with pipeline latency) and directly by tests.
//
// NewEvaluator compiles the graph once, as SD_Config configures the
// fabric once (Section 4.4). Every value an instance reads or computes
// has a fixed slot in one word array: the input-port words, then the
// node results, then the immediates. Each node becomes one step naming
// its lane kernel and its operand slots, in topological order, so an
// instance is one pass over the steps with nothing decoded again.
type Evaluator struct {
	g     *Graph
	slots []uint64
	steps []step
	outs  [][]int32  // per output port, the slot of each word
	res   [][]uint64 // Eval's per-port result words, reused across instances
}

// step is one node of the compiled program.
type step struct {
	k       kernel
	a, b, c int32 // operand slots
	dst     int32 // result slot
	state   uint64
	op      Op
}

// NewEvaluator returns an evaluator for g, which must be valid.
func NewEvaluator(g *Graph) (*Evaluator, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	imms := 1 // the first immediate slot holds the zero unused operands read
	for _, n := range g.Nodes {
		imms += countImms(n.Args)
	}
	for _, p := range g.Outs {
		imms += countImms(p.Sources)
	}
	firstNode := g.InWidthWords()
	zero := firstNode + len(g.Nodes)
	e := &Evaluator{
		g:     g,
		slots: make([]uint64, zero+imms),
		steps: make([]step, len(order)),
		outs:  make([][]int32, len(g.Outs)),
	}
	next := zero + 1
	slot := func(r Ref) int32 {
		switch r.Kind {
		case RefPort:
			return int32(firstWord(g, r.Port) + r.Word)
		case RefNode:
			return int32(firstNode + int(r.Node))
		}
		e.slots[next] = r.Imm
		next++
		return int32(next - 1)
	}
	for i, id := range order {
		n := &g.Nodes[id]
		operands := [3]int32{int32(zero), int32(zero), int32(zero)}
		for j, a := range n.Args {
			operands[j] = slot(a)
		}
		e.steps[i] = step{k: n.Op.kernel(), a: operands[0], b: operands[1], c: operands[2],
			dst: int32(firstNode + int(id)), op: n.Op}
	}
	src := make([]int32, 0, g.OutWidthWords())
	for p := range g.Outs {
		for _, r := range g.Outs[p].Sources {
			src = append(src, slot(r))
		}
		e.outs[p] = src[len(src)-g.Outs[p].Width():]
	}
	e.Reset()
	return e, nil
}

func countImms(refs []Ref) int {
	n := 0
	for _, r := range refs {
		if r.Kind == RefImm {
			n++
		}
	}
	return n
}

// Reset restores all accumulator state to its identity value, as a CGRA
// reconfiguration does.
func (e *Evaluator) Reset() {
	for i := range e.steps {
		e.steps[i].state = e.steps[i].op.InitState()
	}
}

// In returns input port p's slots, the words the next Fire reads. The
// caller fills them in place; their capacity is the port's width.
func (e *Evaluator) In(p int) []uint64 {
	lo := firstWord(e.g, p)
	hi := lo + e.g.Ins[p].Width
	return e.slots[lo:hi:hi]
}

// firstWord is the slot of input port p's first word: the ports' words
// fill the first slots in port order.
func firstWord(g *Graph, p int) int {
	s := 0
	for _, in := range g.Ins[:p] {
		s += in.Width
	}
	return s
}

// Fire runs one computation instance on the words in the input slots.
func (e *Evaluator) Fire() {
	v := e.slots
	for i := range e.steps {
		s := &e.steps[i]
		v[s.dst], s.state = s.k(v[s.a], v[s.b], v[s.c], s.state)
	}
}

// AppendOut appends the last instance's words of output port p to dst,
// each narrowed to the port's element size, little-endian: the bytes the
// port's FIFO receives.
func (e *Evaluator) AppendOut(dst []byte, p int) []byte {
	elem := e.g.Outs[p].ElemBytes
	for _, s := range e.outs[p] {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], e.slots[s])
		dst = append(dst, buf[:elem]...)
	}
	return dst
}

// Eval runs one computation instance. inputs[p] holds the words for input
// port p (length = the port's width); the result is indexed the same way
// over output ports. The returned slices are valid until the next Eval.
func (e *Evaluator) Eval(inputs [][]uint64) ([][]uint64, error) {
	g := e.g
	if len(inputs) != len(g.Ins) {
		return nil, fmt.Errorf("dfg %s: %d input vectors for %d ports", g.Name, len(inputs), len(g.Ins))
	}
	for p, in := range inputs {
		if len(in) != g.Ins[p].Width {
			return nil, fmt.Errorf("dfg %s: port %s got %d words, want %d", g.Name, g.Ins[p].Name, len(in), g.Ins[p].Width)
		}
	}
	at := 0
	for _, in := range inputs {
		at += copy(e.slots[at:], in)
	}
	e.Fire()
	if e.res == nil { // allocated on first use: the CGRA reads AppendOut instead
		words := make([]uint64, g.OutWidthWords())
		e.res = make([][]uint64, len(g.Outs))
		for p := range e.res {
			e.res[p], words = words[:len(e.outs[p])], words[len(e.outs[p]):]
		}
	}
	for p, src := range e.outs {
		for w, s := range src {
			e.res[p][w] = e.slots[s]
		}
	}
	return e.res, nil
}
