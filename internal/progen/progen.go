// Package progen generates random but individually well-formed
// stream-dataflow programs over the two-input adder graph. The fix
// package's differential fuzzer and the core package's fault-injection
// soak harness both drive it: every generated step stages both adder
// inputs and consumes the output, so programs are always balanced, but
// steps freely collide in memory and scratch space and barriers appear
// only occasionally — exactly the programs whose hazards the linter,
// the fixer, and the hang diagnoser are built to handle.
package progen

import (
	"fmt"
	"math/rand"

	"softbrain/internal/core"
	"softbrain/internal/dfg"
	"softbrain/internal/isa"
)

// Ports names the vector ports of the addpair graph.
type Ports struct {
	A, B isa.InPortID  // adder operands
	Ind  isa.InPortID  // index staging port (indirect-capable, unmapped)
	C    isa.OutPortID // sums
}

// MemPools are the memory regions generated programs read and write;
// they overlap pairwise (0x1_0000..0x1_00c0 in 64-byte steps) so
// random programs produce real memory hazards. PadBases are the
// scratchpad lines they use.
var (
	MemPools = []uint64{0x1_0000, 0x1_0040, 0x1_0080, 0x2_0000}
	PadBases = []uint64{0, 64, 128}
)

// Addpair builds a program configured with the two-input adder graph
// (A + B -> C, one 64-bit word each) and returns the port bindings the
// generator needs.
func Addpair(cfg core.Config) (*core.Program, Ports, error) {
	b := dfg.NewBuilder("addpair")
	a := b.Input("A", 1)
	v := b.Input("B", 1)
	b.Output("C", b.N(dfg.Add(64), a.W(0), v.W(0)))
	g, err := b.Build()
	if err != nil {
		return nil, Ports{}, err
	}
	p := core.NewProgram("addpair")
	p.CompileAndConfigure(cfg.Fabric, g)
	ports := Ports{A: p.In("A"), B: p.In("B"), Ind: p.IndirectIn(cfg.Fabric, 0), C: p.Out("C")}
	if err := p.Err(); err != nil {
		return nil, Ports{}, err
	}
	return p, ports, nil
}

// Commands produces a random command sequence for the addpair graph:
// each step stages both inputs and consumes the output, so the program
// is always balanced. Indirect indices are staged from constants only,
// so a fixed program and its serialized reference gather the same
// addresses regardless of memory contents.
func Commands(rng *rand.Rand, p Ports) []isa.Command {
	pool := func() uint64 { return MemPools[rng.Intn(len(MemPools))] }
	pad := func() uint64 { return PadBases[rng.Intn(len(PadBases))] }

	var cmds []isa.Command
	steps := 3 + rng.Intn(8)
	for s := 0; s < steps; s++ {
		n := uint64(1 + rng.Intn(8))
		bytes := 8 * n
		switch rng.Intn(4) {
		case 0:
			cmds = append(cmds, isa.MemPort{Src: isa.Linear(pool(), bytes), Dst: p.A})
		case 1:
			cmds = append(cmds, isa.ScratchPort{Src: isa.Linear(pad(), bytes), Dst: p.A})
		case 2:
			cmds = append(cmds, isa.ConstPort{Value: rng.Uint64(), Elem: isa.Elem64, Count: n, Dst: p.A})
		case 3:
			idx := uint64(rng.Intn(16))
			cmds = append(cmds,
				isa.ConstPort{Value: idx, Elem: isa.Elem32, Count: 2 * n, Dst: p.Ind},
				isa.IndPortPort{
					Idx: p.Ind, IdxElem: isa.Elem32,
					Offset: pool(), Scale: 4, DataElem: isa.Elem32, Count: 2 * n,
					Dst: p.A,
				})
		}
		if rng.Intn(2) == 0 {
			cmds = append(cmds, isa.MemPort{Src: isa.Linear(pool(), bytes), Dst: p.B})
		} else {
			cmds = append(cmds, isa.ConstPort{Value: uint64(rng.Intn(1 << 16)), Elem: isa.Elem64, Count: n, Dst: p.B})
		}
		switch rng.Intn(4) {
		case 0, 1:
			cmds = append(cmds, isa.PortMem{Src: p.C, Dst: isa.Linear(pool(), bytes)})
		case 2:
			cmds = append(cmds, isa.PortScratch{Src: p.C, Elem: isa.Elem64, Count: n, ScratchAddr: pad()})
		case 3:
			cmds = append(cmds, isa.CleanPort{Src: p.C, Elem: isa.Elem64, Count: n})
		}
		switch rng.Intn(4) {
		case 0:
			cmds = append(cmds, isa.BarrierAll{})
		case 1:
			cmds = append(cmds, isa.BarrierScratchWr{})
		}
	}
	return cmds
}

// BarrierCommands generates a barrier-heavy balanced sequence with
// nontrivial placement intervals — the shipped workloads carry 0–2
// barriers each, too few to exercise the interval analysis of
// internal/fix. Each block writes a region (memory or scratchpad),
// issues unrelated const→clean filler steps, then the matching barrier,
// then reads the region back: the barrier is load-bearing (the
// write/read pair pins it) but movable across every filler. Blocks
// reuse pools and scratch lines, so cross-block hazards remain for the
// fix pass to repair with additional barriers — run the generated
// program through fix.Fix before asserting cleanliness.
func BarrierCommands(rng *rand.Rand, p Ports) []isa.Command {
	var cmds []isa.Command
	blocks := 3 + rng.Intn(4)
	for b := 0; b < blocks; b++ {
		n := uint64(1 + rng.Intn(4))
		bytes := 8 * n
		pool := MemPools[rng.Intn(len(MemPools))]
		pad := PadBases[rng.Intn(len(PadBases))]
		scratch := rng.Intn(2) == 0

		// Producer: compute n sums from constants into the region.
		cmds = append(cmds,
			isa.ConstPort{Value: rng.Uint64(), Elem: isa.Elem64, Count: n, Dst: p.A},
			isa.ConstPort{Value: uint64(rng.Intn(1 << 12)), Elem: isa.Elem64, Count: n, Dst: p.B},
		)
		if scratch {
			cmds = append(cmds, isa.PortScratch{Src: p.C, Elem: isa.Elem64, Count: n, ScratchAddr: pad})
		} else {
			cmds = append(cmds, isa.PortMem{Src: p.C, Dst: isa.Linear(pool, bytes)})
		}

		// Unrelated fillers the barrier can legally slide across.
		for f, fillers := 0, 1+rng.Intn(3); f < fillers; f++ {
			fn := uint64(1 + rng.Intn(4))
			cmds = append(cmds,
				isa.ConstPort{Value: rng.Uint64(), Elem: isa.Elem64, Count: fn, Dst: p.A},
				isa.ConstPort{Value: rng.Uint64(), Elem: isa.Elem64, Count: fn, Dst: p.B},
				isa.CleanPort{Src: p.C, Elem: isa.Elem64, Count: fn},
			)
		}

		// The barrier ordering producer against consumer, then the
		// consumer reading the region back.
		if scratch {
			cmds = append(cmds,
				isa.BarrierScratchWr{},
				isa.ScratchPort{Src: isa.Linear(pad, bytes), Dst: p.A},
			)
		} else {
			cmds = append(cmds,
				isa.BarrierAll{},
				isa.MemPort{Src: isa.Linear(pool, bytes), Dst: p.A},
			)
		}
		cmds = append(cmds,
			isa.ConstPort{Value: 1, Elem: isa.Elem64, Count: n, Dst: p.B},
			isa.CleanPort{Src: p.C, Elem: isa.Elem64, Count: n},
		)
	}
	return append(cmds, isa.BarrierAll{})
}

// Rebase returns a copy of cmds with every memory address shifted by
// delta bytes. Scratchpad addresses stay put (each unit owns its
// scratchpad). Running the same generated program rebased to disjoint
// regions on each unit of a cluster gives the units disjoint memory
// footprints — the parallel scheduler's requirement — while keeping
// their cycle-level behavior identical.
func Rebase(cmds []isa.Command, delta uint64) []isa.Command {
	out := make([]isa.Command, len(cmds))
	for i, c := range cmds {
		switch c := c.(type) {
		case isa.MemPort:
			c.Src.Start += delta
			out[i] = c
		case isa.PortMem:
			c.Dst.Start += delta
			out[i] = c
		case isa.IndPortPort:
			c.Offset += delta
			out[i] = c
		case isa.IndPortMem:
			c.Offset += delta
			out[i] = c
		default:
			out[i] = c
		}
	}
	return out
}

// UnitSpan is the rebase stride separating cluster units' memory
// regions: unit u's pools live at MemPools[k] + u*UnitSpan, far enough
// apart that generated footprints never cross spans by accident.
const UnitSpan uint64 = 0x10_0000

// ClusterCommands generates one balanced command sequence per unit from
// a single random base sequence, rebased into disjoint memory spans —
// the disjoint-partitioning convention the cluster linter verifies.
// With hazard >= 0, unit hazard%units gains one extra balanced step
// whose final write lands in the *next* unit's span, on a pool the base
// sequence provably touches: a seeded inter-unit race with a known unit
// pair and overlap extent for regression and soak coverage. A negative
// hazard seeds nothing.
func ClusterCommands(rng *rand.Rand, p Ports, units, hazard int) [][]isa.Command {
	base := Commands(rng, p)
	pool, ok := firstPool(base)
	if !ok {
		// The base sequence has no linear memory access; anchor every
		// unit on pool 0 with a balanced read step so a seeded hazard
		// always has a victim access to collide with.
		pool = MemPools[0]
		n := uint64(1 + rng.Intn(4))
		base = append(base,
			isa.MemPort{Src: isa.Linear(pool, 8*n), Dst: p.A},
			isa.ConstPort{Value: 1, Elem: isa.Elem64, Count: n, Dst: p.B},
			isa.CleanPort{Src: p.C, Elem: isa.Elem64, Count: n},
		)
	}
	out := make([][]isa.Command, units)
	for u := 0; u < units; u++ {
		out[u] = Rebase(base, uint64(u)*UnitSpan)
	}
	if hazard >= 0 && units > 1 {
		u := hazard % units
		victim := (u + 1) % units
		n := uint64(1 + rng.Intn(4))
		out[u] = append(out[u],
			isa.MemPort{Src: isa.Linear(MemPools[0]+uint64(u)*UnitSpan, 8*n), Dst: p.A},
			isa.ConstPort{Value: 1, Elem: isa.Elem64, Count: n, Dst: p.B},
			isa.PortMem{Src: p.C, Dst: isa.Linear(pool+uint64(victim)*UnitSpan, 8*n)},
			isa.BarrierAll{},
		)
	}
	return out
}

// firstPool returns the first linearly-accessed DRAM address in the
// sequence. Indirect accesses don't count: their footprint starts at
// Offset + index*Scale, so a write seeded at Offset itself might miss.
func firstPool(cmds []isa.Command) (uint64, bool) {
	for _, c := range cmds {
		switch c := c.(type) {
		case isa.MemPort:
			return c.Src.Start, true
		case isa.PortMem:
			return c.Dst.Start, true
		}
	}
	return 0, false
}

// ClusterPrograms materializes one program per unit over the addpair
// graph from per-unit command lists (see ClusterCommands).
func ClusterPrograms(cfg core.Config, sets [][]isa.Command) ([]*core.Program, error) {
	progs := make([]*core.Program, len(sets))
	for u, cmds := range sets {
		p, _, err := Addpair(cfg)
		if err != nil {
			return nil, err
		}
		p.Name = fmt.Sprintf("addpair#%d", u)
		for _, c := range cmds {
			p.Emit(c)
		}
		if err := p.Err(); err != nil {
			return nil, err
		}
		progs[u] = p
	}
	return progs, nil
}

// Maim removes the i-th (mod count, so any i, negative too) non-barrier
// command from cmds, returning a copy — the classic way to wreck a
// balanced program and provoke a hang for the diagnoser to classify. It
// returns cmds unchanged when there is nothing to remove.
func Maim(cmds []isa.Command, i int) []isa.Command {
	var idxs []int
	for j, c := range cmds {
		switch c.Kind() {
		case isa.KindBarrierAll, isa.KindBarrierScratchRd, isa.KindBarrierScratchWr:
		default:
			idxs = append(idxs, j)
		}
	}
	if len(idxs) == 0 {
		return cmds
	}
	n := len(idxs)
	drop := idxs[(i%n+n)%n]
	out := make([]isa.Command, 0, len(cmds)-1)
	out = append(out, cmds[:drop]...)
	return append(out, cmds[drop+1:]...)
}
