package dfg

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// widths lists the CGRA's sub-word SIMD lane widths.
var widths = []uint8{8, 16, 32, 64}

// interesting returns a word whose bytes are drawn from lane boundary
// values (0, 1, the signed extremes, -1) or chosen at random, so every
// lane width sees zeros, extremes and sign changes.
func interesting(r *rand.Rand) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		b := [...]uint64{0x00, 0x01, 0x7f, 0x80, 0xff, uint64(r.Intn(256))}[r.Intn(6)]
		v |= b << (8 * i)
	}
	return v
}

// wordSource draws one input word of a kind fixed per stream: uniform
// random, lane boundary values, small signed integers, or a sparse
// reset/control stream (mostly zero, as an accumulator's reset input).
type wordSource int

const (
	uniform wordSource = iota
	boundary
	small
	resets
	numSources
)

func (k wordSource) draw(r *rand.Rand) uint64 {
	switch k {
	case uniform:
		return r.Uint64()
	case boundary:
		return interesting(r)
	case small:
		return uint64(int64(r.Intn(600) - 300))
	}
	if r.Intn(8) != 0 {
		return 0
	}
	return [...]uint64{1, 1 << 40, r.Uint64() | 1}[r.Intn(3)]
}

// fuzzImm is an immediate operand: a shift amount, a lane boundary
// pattern or a random word.
func fuzzImm(r *rand.Rand) Ref {
	switch r.Intn(3) {
	case 0:
		return ImmRef(uint64(r.Intn(70)))
	case 1:
		return ImmRef(interesting(r))
	}
	return ImmRef(r.Uint64())
}

// fuzzGraph builds a random valid graph: up to four input ports, up to
// 24 nodes of any op at any lane width with port, node and immediate
// operands, and up to three output ports of any element size whose
// words come from nodes, port words or immediates.
func fuzzGraph(r *rand.Rand) *Graph {
	b := NewBuilder("fz")
	var ports []Ref
	for i := 0; i < 1+r.Intn(4); i++ {
		in := b.Input(string(rune('A'+i)), 1+r.Intn(8))
		for w := 0; w < b.g.Ins[i].Width; w++ {
			ports = append(ports, in.W(w))
		}
	}
	var nodes []Ref
	ref := func() Ref {
		switch k := r.Intn(8); {
		case k < 4 && len(nodes) > 0:
			return nodes[len(nodes)-1-r.Intn(min(len(nodes), 4))]
		case k < 6 && len(nodes) > 0:
			return nodes[r.Intn(len(nodes))]
		case k == 7:
			return fuzzImm(r)
		}
		return ports[r.Intn(len(ports))]
	}
	for i := 0; i < r.Intn(25); i++ {
		op := Op{Base: BaseOp(1 + r.Intn(int(numBaseOps)-1)), Width: widths[r.Intn(4)]}
		args := make([]Ref, op.Arity())
		for j := range args {
			args[j] = ref()
		}
		nodes = append(nodes, b.N(op, args...))
	}
	for i := 0; i < 1+r.Intn(3); i++ {
		src := make([]Ref, 1+r.Intn(8))
		for j := range src {
			src[j] = ref()
		}
		b.OutputElem(string(rune('X'+i)), 1<<r.Intn(4), src...)
	}
	g, err := b.Build()
	if err != nil {
		panic(err) // unreachable: every choice above is valid
	}
	return g
}

// checkAgainstOracle runs g for n consecutive instances on the reference
// interpreter and on two evaluators — one through Eval, one filling its
// input slots (In) and packing its outputs (AppendOut) as the CGRA does
// — on input streams drawn from r, and fails on the first output word or
// port byte that differs. Each input word is one stream of a random
// kind, except that a port named R always carries a sparse reset stream.
// Halfway through all three are Reset, as a reconfiguration resets the
// fabric.
func checkAgainstOracle(t *testing.T, g *Graph, r *rand.Rand, n int) {
	t.Helper()
	ev, err := NewEvaluator(g)
	if err != nil {
		t.Fatal(err)
	}
	fabric, err := NewEvaluator(g)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefEvaluator(g)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []byte
	kinds := make([][]wordSource, len(g.Ins))
	ins := make([][]uint64, len(g.Ins))
	for p := range g.Ins {
		ins[p] = make([]uint64, g.Ins[p].Width)
		for range ins[p] {
			k := wordSource(r.Intn(int(numSources)))
			if g.Ins[p].Name == "R" {
				k = resets
			}
			kinds[p] = append(kinds[p], k)
		}
	}
	for inst := 0; inst < n; inst++ {
		if inst == n/2 {
			ev.Reset()
			fabric.Reset()
			ref.reset()
		}
		for p := range ins {
			for w := range ins[p] {
				ins[p][w] = kinds[p][w].draw(r)
			}
		}
		words, err := ref.eval(ins)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := ev.Eval(ins)
		if err != nil {
			t.Fatal(err)
		}
		for p := range ins {
			copy(fabric.In(p), ins[p])
		}
		fabric.Fire()
		for p := range words {
			for w := range words[p] {
				if outs[p][w] != words[p][w] {
					t.Fatalf("instance %d: output %s word %d = %#x, oracle %#x\ninputs %#x\n%s",
						inst, g.Outs[p].Name, w, outs[p][w], words[p][w], ins, g)
				}
			}
			got = fabric.AppendOut(got[:0], p)
			want = want[:0]
			for _, v := range words[p] {
				for b := 0; b < g.Outs[p].ElemBytes; b++ {
					want = append(want, byte(v>>(8*b)))
				}
			}
			if string(got) != string(want) {
				t.Fatalf("instance %d: output %s bytes %x, oracle %x\ninputs %#x\n%s",
					inst, g.Outs[p].Name, got, want, ins, g)
			}
		}
	}
}

// TestEvalAllocs checks that firing allocates nothing: Eval after its
// first call, and the CGRA's path of In, Fire and AppendOut into a
// buffer of the port's size.
func TestEvalAllocs(t *testing.T) {
	text := corpus(t)["class1p.classifier"]
	g, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(g)
	if err != nil {
		t.Fatal(err)
	}
	ins := [][]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}, {0}}
	if a := testing.AllocsPerRun(100, func() {
		if _, err := ev.Eval(ins); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Eval allocates %v per instance", a)
	}
	buf := make([]byte, 0, g.Outs[0].BytesPerInstance())
	if a := testing.AllocsPerRun(100, func() {
		copy(ev.In(0), ins[0])
		ev.Fire()
		buf = ev.AppendOut(buf[:0], 0)
	}); a != 0 {
		t.Errorf("a fire allocates %v", a)
	}
}

// corpus returns the text of every graph under testdata/graphs: each DFG
// the built-in workloads and internal/progen configure (see
// TestGraphCorpusCurrent).
func corpus(t testing.TB) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "graphs", "*.dfg"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no graph corpus under testdata/graphs: %v", err)
	}
	out := map[string]string{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimSuffix(filepath.Base(f), ".dfg")] = string(b)
	}
	return out
}

// TestEvaluatorMatchesOracle compares the evaluator with the reference
// interpreter word for word: every op at every lane width fed from
// ports and from immediates, with accumulators on sparse reset streams;
// port words and immediates wired straight to outputs of every element
// size; every graph of the workload corpus; and random graphs.
func TestEvaluatorMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for base := BaseOp(1); base < numBaseOps; base++ {
		for i, w := range widths {
			op := Op{Base: base, Width: w}
			b := NewBuilder("op")
			a, ctl, c := b.Input("A", 1), b.Input("R", 1), b.Input("C", 2)
			fromPorts := []Ref{a.W(0), c.W(1), c.W(0)}
			withImms := []Ref{fuzzImm(r), c.W(0), fuzzImm(r)}
			if base == OpAcc || base == OpAccMin || base == OpAccMax {
				fromPorts[1], withImms[1] = ctl.W(0), ctl.W(0) // the reset stream
			}
			b.OutputElem("X", 1<<i, b.N(op, fromPorts[:op.Arity()]...), a.W(0))
			b.OutputElem("Y", 8>>i, b.N(op, withImms[:op.Arity()]...), ImmRef(r.Uint64()))
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			t.Run(op.String(), func(t *testing.T) {
				for seed := int64(0); seed < 4; seed++ {
					checkAgainstOracle(t, g, rand.New(rand.NewSource(seed)), 128)
				}
			})
		}
	}
	for name, text := range corpus(t) {
		g, err := ParseString(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) {
			checkAgainstOracle(t, g, rand.New(rand.NewSource(2)), 128)
		})
	}
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		checkAgainstOracle(t, fuzzGraph(r), r, 64)
	}
}

// TestOpEvalMatchesOracle compares Op.Eval and InitState with the
// reference for every op at every lane width.
func TestOpEvalMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for base := BaseOp(1); base < numBaseOps; base++ {
		for _, w := range widths {
			op := Op{Base: base, Width: w}
			if got, want := op.InitState(), refInitState(op); got != want {
				t.Errorf("%v.InitState() = %#x, oracle %#x", op, got, want)
			}
			for i := 0; i < 2000; i++ {
				args := make([]uint64, op.Arity())
				for j := range args {
					args[j] = wordSource(r.Intn(int(numSources))).draw(r)
				}
				state := wordSource(r.Intn(int(resets))).draw(r)
				gr, gs := op.Eval(args, state)
				wr, ws := refOpEval(op, args, state)
				if gr != wr || gs != ws {
					t.Fatalf("%v.Eval(%#x, state %#x) = %#x, %#x; oracle %#x, %#x", op, args, state, gr, gs, wr, ws)
				}
			}
		}
	}
}

// FuzzEvaluator compares the evaluator with the reference interpreter on
// a graph given in the .dfg text form — seeded with every graph of the
// workload corpus — or, when the text does not parse, on a random graph
// drawn from seed, over at least 64 consecutive instances.
func FuzzEvaluator(f *testing.F) {
	for _, text := range corpus(f) {
		f.Add(text, uint64(1))
	}
	for seed := uint64(0); seed < 8; seed++ {
		f.Add("", seed)
	}
	f.Fuzz(func(t *testing.T, text string, seed uint64) {
		r := rand.New(rand.NewSource(int64(seed)))
		g, err := ParseString(text)
		if err != nil {
			g = fuzzGraph(r)
		}
		checkAgainstOracle(t, g, r, 64+r.Intn(64))
	})
}
