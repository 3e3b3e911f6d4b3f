package dfg

import "fmt"

// The reference interpreter below is the tree-walking evaluator and the
// per-lane Op.Eval that the package shipped before graphs were compiled
// into slot programs with per-op lane kernels. It is kept verbatim, with
// its own copies of the lane helpers, so the oracle that FuzzEvaluator
// and TestEvaluatorMatchesOracle compare against shares no code with the
// evaluator under test.

// refEvaluator is the reference graph walk: per instance, every node in
// topological order dereferences its operands and runs refOpEval.
type refEvaluator struct {
	g     *Graph
	order []NodeID
	state []uint64
	vals  []uint64
	outs  [][]uint64
}

func newRefEvaluator(g *Graph) (*refEvaluator, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	e := &refEvaluator{
		g:     g,
		order: order,
		state: make([]uint64, len(g.Nodes)),
		vals:  make([]uint64, len(g.Nodes)),
		outs:  make([][]uint64, len(g.Outs)),
	}
	for p := range g.Outs {
		e.outs[p] = make([]uint64, g.Outs[p].Width())
	}
	e.reset()
	return e, nil
}

func (e *refEvaluator) reset() {
	for i := range e.state {
		e.state[i] = refInitState(e.g.Nodes[i].Op)
	}
}

func (e *refEvaluator) eval(inputs [][]uint64) ([][]uint64, error) {
	g := e.g
	if len(inputs) != len(g.Ins) {
		return nil, fmt.Errorf("dfg %s: %d input vectors for %d ports", g.Name, len(inputs), len(g.Ins))
	}
	for p, in := range inputs {
		if len(in) != g.Ins[p].Width {
			return nil, fmt.Errorf("dfg %s: port %s got %d words, want %d", g.Name, g.Ins[p].Name, len(in), g.Ins[p].Width)
		}
	}
	deref := func(r Ref) uint64 {
		switch r.Kind {
		case RefPort:
			return inputs[r.Port][r.Word]
		case RefNode:
			return e.vals[r.Node]
		default:
			return r.Imm
		}
	}
	var args [3]uint64
	for _, id := range e.order {
		n := &g.Nodes[id]
		for i, a := range n.Args {
			args[i] = deref(a)
		}
		e.vals[id], e.state[id] = refOpEval(n.Op, args[:len(n.Args)], e.state[id])
	}
	for p := range g.Outs {
		words := e.outs[p]
		for w, r := range g.Outs[p].Sources {
			words[w] = deref(r)
		}
	}
	return e.outs, nil
}

// refOpEval is the reference Op.Eval: a generic lane loop with the op
// switch inside each lane.
func refOpEval(o Op, args []uint64, state uint64) (result, newState uint64) {
	w := o.Width
	lanes := o.Lanes()
	mask := refLaneMask(w)

	lane := func(v uint64, i int) uint64 { return v >> (uint(i) * uint(w)) & mask }

	switch o.Base {
	case OpAnd:
		return args[0] & args[1], state
	case OpOr:
		return args[0] | args[1], state
	case OpXor:
		return args[0] ^ args[1], state
	case OpAcc, OpAccMin, OpAccMax:
		// args[0] is data, args[1] is the reset control stream.
		var out uint64
		switch o.Base {
		case OpAcc:
			out = refAddLanes(state, args[0], w)
		case OpAccMin:
			out, _ = refOpEval(Min(w), []uint64{state, args[0]}, 0)
		default:
			out, _ = refOpEval(Max(w), []uint64{state, args[0]}, 0)
		}
		if args[1] != 0 {
			return out, refInitState(o)
		}
		return out, out
	case OpRedAdd:
		var sum int64
		for i := 0; i < lanes; i++ {
			sum += refSignExtend(lane(args[0], i), w)
		}
		return uint64(sum), state
	case OpRedMin:
		best := refSignExtend(lane(args[0], 0), w)
		for i := 1; i < lanes; i++ {
			if v := refSignExtend(lane(args[0], i), w); v < best {
				best = v
			}
		}
		return uint64(best), state
	}

	var out uint64
	for i := 0; i < lanes; i++ {
		a := lane(args[0], i)
		var b, c uint64
		if o.Arity() > 1 {
			b = lane(args[1], i)
		}
		if o.Arity() > 2 {
			c = lane(args[2], i)
		}
		var r uint64
		switch o.Base {
		case OpAdd:
			r = a + b
		case OpSub:
			r = a - b
		case OpMul:
			r = a * b
		case OpDiv:
			sb := refSignExtend(b, w)
			if sb == 0 {
				r = 0
			} else {
				r = uint64(refSignExtend(a, w) / sb)
			}
		case OpMin:
			if refSignExtend(a, w) < refSignExtend(b, w) {
				r = a
			} else {
				r = b
			}
		case OpMax:
			if refSignExtend(a, w) > refSignExtend(b, w) {
				r = a
			} else {
				r = b
			}
		case OpAbs:
			if s := refSignExtend(a, w); s < 0 {
				r = uint64(-s)
			} else {
				r = a
			}
		case OpShl:
			r = a << (args[1] & 63)
		case OpShr:
			r = a >> (args[1] & 63)
		case OpAshr:
			r = uint64(refSignExtend(a, w) >> (args[1] & 63))
		case OpEq:
			if a == b {
				r = 1
			}
		case OpLt:
			if refSignExtend(a, w) < refSignExtend(b, w) {
				r = 1
			}
		case OpSel:
			if a != 0 {
				r = b
			} else {
				r = c
			}
		case OpSig:
			r = refSigmoidFixed(refSignExtend(a, w), w)
		}
		out |= (r & mask) << (uint(i) * uint(w))
	}
	return out, state
}

func refInitState(o Op) uint64 {
	switch o.Base {
	case OpAccMin:
		return refRepeatLane(refLaneMask(o.Width)>>1, o.Width) // lane max positive
	case OpAccMax:
		return refRepeatLane(refLaneMask(o.Width)>>1^refLaneMask(o.Width), o.Width) // lane min
	}
	return 0
}

func refLaneMask(w uint8) uint64 {
	if w == 64 {
		return ^uint64(0)
	}
	return 1<<w - 1
}

func refSignExtend(v uint64, w uint8) int64 {
	shift := 64 - uint(w)
	return int64(v<<shift) >> shift
}

func refRepeatLane(v uint64, w uint8) uint64 {
	if w == 64 {
		return v
	}
	var out uint64
	for i := 0; i < 64/int(w); i++ {
		out |= (v & refLaneMask(w)) << (uint(i) * uint(w))
	}
	return out
}

func refAddLanes(a, b uint64, w uint8) uint64 {
	if w == 64 {
		return a + b
	}
	mask := refLaneMask(w)
	var out uint64
	for i := 0; i < 64/int(w); i++ {
		sh := uint(i) * uint(w)
		out |= (a>>sh + b>>sh) & mask << sh
	}
	return out
}

func refSigmoidFixed(x int64, w uint8) uint64 {
	frac := uint(w) / 2
	one := int64(1) << frac
	four := 4 * one
	switch {
	case x <= -four:
		return 0
	case x >= four:
		return uint64(one)
	default:
		return uint64(one/2 + x/8)
	}
}
