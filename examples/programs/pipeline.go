package programs

import (
	"fmt"

	"softbrain"
)

// PipelineExample is a phased multi-unit example: phases[k][u] is the
// program unit u runs in phase k. Phases execute sequentially — each
// starts only after every unit of the previous one finished — and that
// phase boundary is the only inter-unit ordering, so cross-unit
// producer/consumer traffic must flow through declared shared regions
// the cluster linter verifies (docs/LINT.md).
type PipelineExample struct {
	Name    string
	Cfg     softbrain.Config
	Phases  [][]*softbrain.Program
	Regions []softbrain.LintRegion

	// Init writes the input data into the memory image.
	Init func(m *softbrain.Memory)

	// Check compares the memory image against the host computation
	// after the run.
	Check func(m *softbrain.Memory) error

	// Report prints the example's human-readable summary.
	Report func(m *softbrain.Memory, stats *softbrain.Stats)
}

// Run executes the pipeline on a fresh cluster under the strict
// contract: the cluster linter (machine scope and cluster scope, with
// the example's shared regions declared) must pass before anything
// runs.
func (e PipelineExample) Run() (*softbrain.Memory, *softbrain.Stats, error) {
	if len(e.Phases) == 0 {
		return nil, nil, fmt.Errorf("pipeline %s has no phases", e.Name)
	}
	cl, err := softbrain.NewCluster(e.Cfg, len(e.Phases[0]))
	if err != nil {
		return nil, nil, err
	}
	cl.Lint = softbrain.ClusterLintHook(e.Cfg, softbrain.ClusterLintOpts{Regions: e.Regions})
	e.Init(cl.Mem)
	stats, err := cl.RunPipelineStrict(e.Phases)
	if err != nil {
		return nil, nil, err
	}
	if err := e.Check(cl.Mem); err != nil {
		return nil, nil, err
	}
	return cl.Mem, stats, nil
}

// Pipeline is the minimal checked shared-region pipeline: two units,
// two phases, one declared region. In phase 0 unit 0 multiplies two
// input vectors element-wise into the staging region; the phase
// boundary publishes it; in phase 1 unit 1 reads the staged products
// and adds a bias into the output buffer. Neither unit ever issues an
// inter-unit synchronization command — none exists in the ISA — yet
// the run is deterministic because the only shared bytes are the
// declared region and the reader runs a phase after the writer, which
// is exactly what the cluster linter proves before the run starts.
func Pipeline() (PipelineExample, error) {
	cfg := softbrain.DefaultConfig()

	const n = 64
	const bias = 7
	const aAddr, bAddr = 0x1_0000, 0x1_4000
	const stageAddr, outAddr = 0x2_0000, 0x3_0000

	mulG, err := binaryGraph("stage-mul", softbrain.Mul(64))
	if err != nil {
		return PipelineExample{}, err
	}
	addG, err := binaryGraph("bias-add", softbrain.Add(64))
	if err != nil {
		return PipelineExample{}, err
	}

	producer := softbrain.NewProgram("producer")
	producer.CompileAndConfigure(cfg.Fabric, mulG)
	producer.Emit(softbrain.MemPort{Src: softbrain.Linear(aAddr, 8*n), Dst: producer.In("A")})
	producer.Emit(softbrain.MemPort{Src: softbrain.Linear(bAddr, 8*n), Dst: producer.In("B")})
	producer.Emit(softbrain.PortMem{Src: producer.Out("C"), Dst: softbrain.Linear(stageAddr, 8*n)})
	producer.Emit(softbrain.BarrierAll{})

	consumer := softbrain.NewProgram("consumer")
	consumer.CompileAndConfigure(cfg.Fabric, addG)
	consumer.Emit(softbrain.MemPort{Src: softbrain.Linear(stageAddr, 8*n), Dst: consumer.In("A")})
	consumer.Emit(softbrain.ConstPort{Value: bias, Elem: softbrain.Elem64, Count: n, Dst: consumer.In("B")})
	consumer.Emit(softbrain.PortMem{Src: consumer.Out("C"), Dst: softbrain.Linear(outAddr, 8*n)})
	consumer.Emit(softbrain.BarrierAll{})

	phases := [][]*softbrain.Program{
		{producer, idleUnit(cfg, "idle-1")},
		{idleUnit(cfg, "idle-0"), consumer},
	}
	for _, ph := range phases {
		for _, p := range ph {
			if err := p.Err(); err != nil {
				return PipelineExample{}, err
			}
		}
	}

	return PipelineExample{
		Name:   "pipeline",
		Cfg:    cfg,
		Phases: phases,
		Regions: []softbrain.LintRegion{
			{Name: "stage", Lo: stageAddr, Hi: stageAddr + 8*n},
		},
		Init: func(m *softbrain.Memory) {
			for i := uint64(0); i < n; i++ {
				m.WriteU64(aAddr+8*i, i%23)
				m.WriteU64(bAddr+8*i, i%19)
			}
		},
		Check: func(m *softbrain.Memory) error {
			for i := uint64(0); i < n; i++ {
				want := (i%23)*(i%19) + bias
				if got := m.ReadU64(outAddr + 8*i); got != want {
					return fmt.Errorf("out[%d] = %d, want %d", i, got, want)
				}
			}
			return nil
		},
		Report: func(m *softbrain.Memory, stats *softbrain.Stats) {
			fmt.Printf("two-unit shared-region pipeline over %d elements: OK\n", n)
			fmt.Printf("  cycles (phases summed): %d\n", stats.Cycles)
			fmt.Printf("  dataflow instances:     %d\n", stats.Instances)
			fmt.Printf("  control commands:       %d\n", stats.Commands)
		},
	}, nil
}

// binaryGraph builds the one-node graph C = op(A, B), one word each.
func binaryGraph(name string, op softbrain.Op) (*softbrain.Graph, error) {
	b := softbrain.NewGraph(name)
	a := b.Input("A", 1)
	v := b.Input("B", 1)
	b.Output("C", b.N(op, a.W(0), v.W(0)))
	return b.Build()
}

// idleUnit builds a balanced do-nothing program for a unit that sits
// out a phase: one constant-fed instance, output drained, no memory
// traffic at all.
func idleUnit(cfg softbrain.Config, name string) *softbrain.Program {
	g, err := binaryGraph(name, softbrain.Add(64))
	if err != nil {
		panic(err) // static graph, cannot fail
	}
	p := softbrain.NewProgram(name)
	p.CompileAndConfigure(cfg.Fabric, g)
	p.Emit(softbrain.ConstPort{Value: 0, Elem: softbrain.Elem64, Count: 1, Dst: p.In("A")})
	p.Emit(softbrain.ConstPort{Value: 0, Elem: softbrain.Elem64, Count: 1, Dst: p.In("B")})
	// No trailing barrier: the program touches no memory, so there is
	// nothing to order — the fix pass would flag one as redundant.
	p.Emit(softbrain.CleanPort{Src: p.Out("C"), Elem: softbrain.Elem64, Count: 1})
	return p
}
