// Package dfg models the dataflow-graph abstraction of the stream-dataflow
// architecture (Figure 3a): an acyclic graph of fixed-function operations
// whose inputs and outputs are named vector ports with explicit widths.
//
// Values on dataflow edges are 64-bit words. An operation interprets its
// word operands as packed lanes of 8, 16, 32 or 64 bits (the CGRA's
// sub-word SIMD modes), so a single node like Mul(16) is a 4-way 16-bit
// multiplier. Direct accumulation (an instruction feeding a later instance
// of itself) is expressed with the Acc operation, which holds state inside
// its processing element; all other inter-iteration dependences use
// recurrence streams through the ports.
package dfg

import (
	"fmt"
	"strconv"
	"strings"
)

// BaseOp is the operation family, independent of lane width.
type BaseOp uint8

const (
	OpInvalid BaseOp = iota
	OpAdd            // lane-wise addition (wrapping)
	OpSub            // lane-wise subtraction (wrapping)
	OpMul            // lane-wise multiplication (wrapping)
	OpDiv            // lane-wise signed division; x/0 = 0
	OpMin            // lane-wise signed minimum
	OpMax            // lane-wise signed maximum
	OpAbs            // lane-wise absolute value
	OpAnd            // bitwise and
	OpOr             // bitwise or
	OpXor            // bitwise xor
	OpShl            // lane-wise shift left by scalar amount (operand 1, low 6 bits)
	OpShr            // lane-wise logical shift right by scalar amount
	OpAshr           // lane-wise arithmetic shift right by scalar amount
	OpEq             // lane-wise compare: 1 if equal else 0
	OpLt             // lane-wise signed compare: 1 if a < b else 0
	OpSel            // lane-wise select: ctl != 0 ? a : b (predication support)
	OpAcc            // accumulate: out = state + a; state = reset != 0 ? init : out
	OpAccMin         // running minimum with reset control, lane-wise signed
	OpAccMax         // running maximum with reset control, lane-wise signed
	OpRedAdd         // reduce: sum of all lanes, result in a 64-bit scalar
	OpRedMin         // reduce: signed min of all lanes, result 64-bit scalar
	OpSig            // lane-wise sigmoid in fixed point Q(w/2).(w/2)
	numBaseOps
)

var baseOpInfo = [numBaseOps]struct {
	name    string
	arity   int
	latency int // pipeline latency in cycles
	class   FUClass
}{
	OpAdd:    {"add", 2, 1, FUAlu},
	OpSub:    {"sub", 2, 1, FUAlu},
	OpMul:    {"mul", 2, 2, FUMul},
	OpDiv:    {"div", 2, 8, FUDiv},
	OpMin:    {"min", 2, 1, FUAlu},
	OpMax:    {"max", 2, 1, FUAlu},
	OpAbs:    {"abs", 1, 1, FUAlu},
	OpAnd:    {"and", 2, 1, FUAlu},
	OpOr:     {"or", 2, 1, FUAlu},
	OpXor:    {"xor", 2, 1, FUAlu},
	OpShl:    {"shl", 2, 1, FUAlu},
	OpShr:    {"shr", 2, 1, FUAlu},
	OpAshr:   {"ashr", 2, 1, FUAlu},
	OpEq:     {"eq", 2, 1, FUAlu},
	OpLt:     {"lt", 2, 1, FUAlu},
	OpSel:    {"sel", 3, 1, FUAlu},
	OpAcc:    {"acc", 2, 1, FUAlu},
	OpAccMin: {"accmin", 2, 1, FUAlu},
	OpAccMax: {"accmax", 2, 1, FUAlu},
	OpRedAdd: {"redadd", 1, 1, FUAlu},
	OpRedMin: {"redmin", 1, 1, FUAlu},
	OpSig:    {"sig", 1, 2, FUSig},
}

// FUClass groups operations by the functional-unit type that executes
// them. The CGRA's per-PE FU mix is provisioned in these classes (the
// "hardware parameter model" of Section 5).
type FUClass uint8

const (
	FUAlu FUClass = iota // adders, logic, compares, select, accumulate
	FUMul                // multipliers
	FUDiv                // iterative divider
	FUSig                // sigmoid / transcendental unit
	NumFUClasses
)

func (c FUClass) String() string {
	switch c {
	case FUAlu:
		return "alu"
	case FUMul:
		return "mul"
	case FUDiv:
		return "div"
	case FUSig:
		return "sig"
	}
	return fmt.Sprintf("FUClass(%d)", uint8(c))
}

// Op is one concrete operation: a base operation at a lane width.
type Op struct {
	Base  BaseOp
	Width uint8 // lane width in bits: 8, 16, 32 or 64
}

// Convenience constructors.
func Add(w uint8) Op    { return Op{OpAdd, w} }
func Sub(w uint8) Op    { return Op{OpSub, w} }
func Mul(w uint8) Op    { return Op{OpMul, w} }
func Div(w uint8) Op    { return Op{OpDiv, w} }
func Min(w uint8) Op    { return Op{OpMin, w} }
func Max(w uint8) Op    { return Op{OpMax, w} }
func Abs(w uint8) Op    { return Op{OpAbs, w} }
func And(w uint8) Op    { return Op{OpAnd, w} }
func Or(w uint8) Op     { return Op{OpOr, w} }
func Xor(w uint8) Op    { return Op{OpXor, w} }
func Shl(w uint8) Op    { return Op{OpShl, w} }
func Shr(w uint8) Op    { return Op{OpShr, w} }
func Ashr(w uint8) Op   { return Op{OpAshr, w} }
func Eq(w uint8) Op     { return Op{OpEq, w} }
func Lt(w uint8) Op     { return Op{OpLt, w} }
func Sel(w uint8) Op    { return Op{OpSel, w} }
func Acc(w uint8) Op    { return Op{OpAcc, w} }
func AccMin(w uint8) Op { return Op{OpAccMin, w} }
func AccMax(w uint8) Op { return Op{OpAccMax, w} }
func RedAdd(w uint8) Op { return Op{OpRedAdd, w} }
func RedMin(w uint8) Op { return Op{OpRedMin, w} }
func Sig(w uint8) Op    { return Op{OpSig, w} }

// Valid reports whether the op names a known base at a legal lane width.
func (o Op) Valid() bool {
	if o.Base == OpInvalid || o.Base >= numBaseOps {
		return false
	}
	switch o.Width {
	case 8, 16, 32, 64:
		return true
	}
	return false
}

// Lanes is the number of sub-word lanes the op processes per word.
func (o Op) Lanes() int { return 64 / int(o.Width) }

// Arity is the number of operands the op consumes.
func (o Op) Arity() int { return baseOpInfo[o.Base].arity }

// Latency is the pipeline latency of the op in CGRA cycles.
func (o Op) Latency() int { return baseOpInfo[o.Base].latency }

// Class is the functional-unit class that executes the op.
func (o Op) Class() FUClass { return baseOpInfo[o.Base].class }

// String formats the op as name+width, e.g. "mul16"; this is also the
// spelling the .dfg text format uses.
func (o Op) String() string {
	if !o.Valid() {
		return fmt.Sprintf("op(%d,%d)", o.Base, o.Width)
	}
	return baseOpInfo[o.Base].name + strconv.Itoa(int(o.Width))
}

// ParseOp parses the textual form produced by Op.String.
func ParseOp(s string) (Op, error) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	name, digits := s[:i], s[i:]
	if digits == "" {
		return Op{}, fmt.Errorf("dfg: op %q missing lane width", s)
	}
	w, err := strconv.Atoi(digits)
	if err != nil || (w != 8 && w != 16 && w != 32 && w != 64) {
		return Op{}, fmt.Errorf("dfg: op %q has invalid lane width %q", s, digits)
	}
	name = strings.ToLower(name)
	for b := BaseOp(1); b < numBaseOps; b++ {
		if baseOpInfo[b].name == name {
			return Op{Base: b, Width: uint8(w)}, nil
		}
	}
	return Op{}, fmt.Errorf("dfg: unknown op %q", s)
}

// Eval computes the op over packed operands, args[i] being operand i.
// For the accumulators, state is the running value and the returned
// state is its successor; every other op passes state through. It runs
// the op's lane kernel, as an Evaluator step does.
func (o Op) Eval(args []uint64, state uint64) (result, newState uint64) {
	var v [3]uint64
	copy(v[:], args)
	return o.kernel()(v[0], v[1], v[2], state)
}

// InitState is the accumulator's identity value: zero for sums, the
// most positive (negative) lane value for running minima (maxima). It is
// the state an accumulator's kernel restores on reset; other ops hold no
// state.
func (o Op) InitState() uint64 {
	switch o.Base {
	case OpAcc, OpAccMin, OpAccMax:
		_, s := o.kernel()(0, 1, 0, 0)
		return s
	}
	return 0
}

// sigmoidFixed is a piecewise-linear fixed-point logistic function in
// Q(w/2).(w/2) format: "one" is 1 << (w/2). It saturates to [0, one] and
// is the same function the golden DNN models use, so accelerator output
// is bit-exact against them.
func sigmoidFixed(x int64, w uint8) uint64 {
	frac := uint(w) / 2
	one := int64(1) << frac
	// Piecewise linear approximation of 1/(1+e^-x) on Q format:
	//   x <= -4: 0;  x >= 4: 1;  else 0.5 + x/8 (clamped).
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
