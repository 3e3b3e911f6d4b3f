package dfg

import (
	"math/bits"
	"unsafe"
)

// A kernel computes one operation at one lane width over packed 64-bit
// operands: a, b and c are the node's operands in order (zero when the
// op takes fewer), s is the node's accumulator state, and the kernel
// returns the result and the successor state. Only accumulators read or
// change s. Each (BaseOp, lane width) pair has its own kernel, so the op
// is decided once per node, never per lane; Evaluator steps, Op.Eval and
// Op.InitState all run the kernels of this table.
type kernel func(a, b, c, s uint64) (r, ns uint64)

// kernels holds the kernel of every op, indexed by BaseOp and by lane
// width: 8, 16, 32 and 64 bits.
var kernels = [numBaseOps][4]kernel{
	OpInvalid: {invalidK, invalidK, invalidK, invalidK},
	OpAdd:     {addK[int8], addK[int16], addK[int32], addK[int64]},
	OpSub:     {subK[int8], subK[int16], subK[int32], subK[int64]},
	OpMul:     {mulK[int8], mulK[int16], mulK[int32], mulK[int64]},
	OpDiv:     {divK[int8], divK[int16], divK[int32], divK[int64]},
	OpMin:     {minK[int8], minK[int16], minK[int32], minK[int64]},
	OpMax:     {maxK[int8], maxK[int16], maxK[int32], maxK[int64]},
	OpAbs:     {absK[int8], absK[int16], absK[int32], absK[int64]},
	OpAnd:     {andK, andK, andK, andK},
	OpOr:      {orK, orK, orK, orK},
	OpXor:     {xorK, xorK, xorK, xorK},
	OpShl:     {shlK[int8], shlK[int16], shlK[int32], shlK[int64]},
	OpShr:     {shrK[int8], shrK[int16], shrK[int32], shrK[int64]},
	OpAshr:    {ashrK[int8], ashrK[int16], ashrK[int32], ashrK[int64]},
	OpEq:      {eqK[int8], eqK[int16], eqK[int32], eqK[int64]},
	OpLt:      {ltK[int8], ltK[int16], ltK[int32], ltK[int64]},
	OpSel:     {selK[int8], selK[int16], selK[int32], selK[int64]},
	OpAcc:     {accK[int8], accK[int16], accK[int32], accK[int64]},
	OpAccMin:  {accMinK[int8], accMinK[int16], accMinK[int32], accMinK[int64]},
	OpAccMax:  {accMaxK[int8], accMaxK[int16], accMaxK[int32], accMaxK[int64]},
	OpRedAdd:  {redAddK[int8], redAddK[int16], redAddK[int32], redAddK[int64]},
	OpRedMin:  {redMinK[int8], redMinK[int16], redMinK[int32], redMinK[int64]},
	OpSig:     {sigK[int8], sigK[int16], sigK[int32], sigK[int64]},
}

// kernel returns the op's kernel; o must be valid.
func (o Op) kernel() kernel { return kernels[o.Base][widthIndex(o.Width)] }

// widthIndex maps a lane width of 8, 16, 32 or 64 bits to 0..3.
func widthIndex(w uint8) int { return bits.TrailingZeros8(w) - 3 }

// lane is the signed integer type of one sub-word SIMD lane. A kernel
// instantiated at a lane type sees its lane count and masks as
// constants, so its lane loop has no width arithmetic left in it.
type lane interface{ int8 | int16 | int32 | int64 }

// geom returns lane type L's width in bits, its lane mask, and the word
// with the low bit of every lane set.
func geom[L lane]() (w uint, mask, lo uint64) {
	w = uint(unsafe.Sizeof(L(0))) * 8
	mask = ^uint64(0) >> (64 - w)
	return w, mask, ^uint64(0) / mask
}

// signs is the word with the top (sign) bit of every lane of type L set.
func signs[L lane]() uint64 {
	w, _, lo := geom[L]()
	return lo << (w - 1)
}

func invalidK(_, _, _, s uint64) (uint64, uint64) { return 0, s }

func andK(a, b, _, s uint64) (uint64, uint64) { return a & b, s }
func orK(a, b, _, s uint64) (uint64, uint64)  { return a | b, s }
func xorK(a, b, _, s uint64) (uint64, uint64) { return a ^ b, s }

// addLanes adds packed lanes without letting a carry cross a lane: the
// low bits add with every lane's top bit cleared, and the top bits are
// then summed in by xor.
func addLanes[L lane](a, b uint64) uint64 {
	hi := signs[L]()
	return (a&^hi + b&^hi) ^ (a^b)&hi
}

func addK[L lane](a, b, _, s uint64) (uint64, uint64) { return addLanes[L](a, b), s }

// subK subtracts lane-wise: every minuend lane's top bit is set and every
// subtrahend lane's cleared, so no borrow crosses a lane, and the true
// top bits are restored by xor.
func subK[L lane](a, b, _, s uint64) (uint64, uint64) {
	hi := signs[L]()
	return ((a | hi) - b&^hi) ^ (a^^b)&hi, s
}

func mulK[L lane](a, b, _, s uint64) (uint64, uint64) {
	w, mask, _ := geom[L]()
	var r uint64
	for sh := uint(0); sh < 64; sh += w {
		r |= uint64(L(a>>sh)*L(b>>sh)) & mask << sh
	}
	return r, s
}

// divK divides lane-wise, signed; a lane divided by zero is zero.
func divK[L lane](a, b, _, s uint64) (uint64, uint64) {
	w, mask, _ := geom[L]()
	var r uint64
	for sh := uint(0); sh < 64; sh += w {
		if d := L(b >> sh); d != 0 {
			r |= uint64(L(a>>sh)/d) & mask << sh
		}
	}
	return r, s
}

func minLanes[L lane](a, b uint64) uint64 {
	w, mask, _ := geom[L]()
	var r uint64
	for sh := uint(0); sh < 64; sh += w {
		r |= uint64(min(L(a>>sh), L(b>>sh))) & mask << sh
	}
	return r
}

func maxLanes[L lane](a, b uint64) uint64 {
	w, mask, _ := geom[L]()
	var r uint64
	for sh := uint(0); sh < 64; sh += w {
		r |= uint64(max(L(a>>sh), L(b>>sh))) & mask << sh
	}
	return r
}

func minK[L lane](a, b, _, s uint64) (uint64, uint64) { return minLanes[L](a, b), s }
func maxK[L lane](a, b, _, s uint64) (uint64, uint64) { return maxLanes[L](a, b), s }

func absK[L lane](a, _, _, s uint64) (uint64, uint64) {
	w, mask, _ := geom[L]()
	var r uint64
	for sh := uint(0); sh < 64; sh += w {
		v := L(a >> sh)
		if v < 0 {
			v = -v
		}
		r |= uint64(v) & mask << sh
	}
	return r, s
}

// shlK and shrK shift every lane by the scalar amount b&63: the word
// shifts whole, and the bits that crossed a lane boundary are masked off.
func shlK[L lane](a, b, _, s uint64) (uint64, uint64) {
	_, mask, lo := geom[L]()
	n := b & 63
	return a << n & (lo * (mask << n & mask)), s
}

func shrK[L lane](a, b, _, s uint64) (uint64, uint64) {
	_, mask, lo := geom[L]()
	n := b & 63
	return a >> n & (lo * (mask >> n)), s
}

func ashrK[L lane](a, b, _, s uint64) (uint64, uint64) {
	w, mask, _ := geom[L]()
	n := b & 63
	var r uint64
	for sh := uint(0); sh < 64; sh += w {
		r |= uint64(L(a>>sh)>>n) & mask << sh
	}
	return r, s
}

func eqK[L lane](a, b, _, s uint64) (uint64, uint64) {
	w, _, _ := geom[L]()
	var r uint64
	for sh := uint(0); sh < 64; sh += w {
		if L(a>>sh) == L(b>>sh) {
			r |= 1 << sh
		}
	}
	return r, s
}

func ltK[L lane](a, b, _, s uint64) (uint64, uint64) {
	w, _, _ := geom[L]()
	var r uint64
	for sh := uint(0); sh < 64; sh += w {
		if L(a>>sh) < L(b>>sh) {
			r |= 1 << sh
		}
	}
	return r, s
}

// selK picks, per lane, b's lane where a's lane is non-zero and c's
// lane where it is zero.
func selK[L lane](a, b, c, s uint64) (uint64, uint64) {
	w, mask, _ := geom[L]()
	pick := c
	for sh := uint(0); sh < 64; sh += w {
		if L(a>>sh) != 0 {
			pick ^= (b ^ c) & (mask << sh)
		}
	}
	return pick, s
}

// The accumulators combine their state with operand a lane-wise and
// emit the result; reset keeps it as the next state unless the reset
// operand b is non-zero, which restores the identity id (Op.InitState):
// zero for sums, every lane at its maximum for minima and at its minimum
// for maxima.
func reset(out, b, id uint64) (uint64, uint64) {
	if b != 0 {
		return out, id
	}
	return out, out
}

func accK[L lane](a, b, _, s uint64) (uint64, uint64) { return reset(addLanes[L](s, a), b, 0) }
func accMinK[L lane](a, b, _, s uint64) (uint64, uint64) {
	return reset(minLanes[L](s, a), b, ^signs[L]())
}
func accMaxK[L lane](a, b, _, s uint64) (uint64, uint64) {
	return reset(maxLanes[L](s, a), b, signs[L]())
}

// redAddK and redMinK reduce the lanes of a to one signed 64-bit scalar.
func redAddK[L lane](a, _, _, s uint64) (uint64, uint64) {
	w, _, _ := geom[L]()
	var sum int64
	for sh := uint(0); sh < 64; sh += w {
		sum += int64(L(a >> sh))
	}
	return uint64(sum), s
}

func redMinK[L lane](a, _, _, s uint64) (uint64, uint64) {
	w, _, _ := geom[L]()
	best := L(a)
	for sh := w; sh < 64; sh += w {
		best = min(best, L(a>>sh))
	}
	return uint64(int64(best)), s
}

func sigK[L lane](a, _, _, s uint64) (uint64, uint64) {
	w, mask, _ := geom[L]()
	var r uint64
	for sh := uint(0); sh < 64; sh += w {
		r |= sigmoidFixed(int64(L(a>>sh)), uint8(w)) & mask << sh
	}
	return r, s
}
