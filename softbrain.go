// Package softbrain is a functional, cycle-level reproduction of the
// stream-dataflow architecture and its Softbrain implementation from
// "Stream-Dataflow Acceleration" (Nowatzki, Gangadhar, Ardalani,
// Sankaralingam — ISCA 2017).
//
// The package is a facade over the implementation packages: it exposes
// everything needed to build dataflow graphs, compile them onto the
// CGRA, write stream-dataflow programs (the full Table 2 command set),
// and run them on a simulated cluster of one or more Softbrain units
// with power and area models. A lone unit is a one-unit cluster.
//
// A minimal program (the paper's Figure 4 dot product):
//
//	cfg := softbrain.DefaultConfig()
//	cl, _ := softbrain.NewCluster(cfg, 1)
//
//	b := softbrain.NewGraph("dotprod")
//	a, v := b.Input("A", 3), b.Input("B", 3)
//	var prods []softbrain.Ref
//	for i := 0; i < 3; i++ {
//		prods = append(prods, b.N(softbrain.Mul(64), a.W(i), v.W(i)))
//	}
//	b.Output("C", b.ReduceTree(softbrain.Add(64), prods...))
//	g, _ := b.Build()
//
//	p := softbrain.NewProgram("dotprod")
//	p.CompileAndConfigure(cfg.Fabric, g)
//	p.Emit(softbrain.MemPort{Src: softbrain.Linear(aAddr, n*8), Dst: p.In("A")})
//	p.Emit(softbrain.MemPort{Src: softbrain.Linear(bAddr, n*8), Dst: p.In("B")})
//	p.Emit(softbrain.PortMem{Src: p.Out("C"), Dst: softbrain.Linear(rAddr, n/3*8)})
//	p.Emit(softbrain.BarrierAll{})
//	stats, _ := cl.RunContext(context.Background(), []*softbrain.Program{p})
package softbrain

import (
	"softbrain/internal/cgra"
	"softbrain/internal/core"
	"softbrain/internal/dfg"
	"softbrain/internal/faults"
	"softbrain/internal/fix"
	"softbrain/internal/isa"
	"softbrain/internal/lint"
	"softbrain/internal/mem"
	"softbrain/internal/power"
	"softbrain/internal/sched"
)

// Machine assembly and execution (see internal/core).
type (
	// Config parameterizes one Softbrain unit: fabric, memory timing,
	// scratchpad size, queue depths and issue costs.
	Config = core.Config
	// Machine is one Softbrain unit of a Cluster: control core,
	// dispatcher, stream engines, vector ports, scratchpad and CGRA over
	// a memory system.
	Machine = core.Machine
	// Cluster is one or more units sharing backing memory and DRAM
	// bandwidth, each with a private cache; RunContext runs programs on
	// it.
	Cluster = core.Cluster
	// Program is a stream-dataflow program: configurations plus the
	// command trace the control core replays.
	Program = core.Program

	// TraceOp is one step of a Program's control trace: a stream
	// command or a host-side delay.
	TraceOp = core.TraceOp
	// Stats aggregates a run's cycle counts and activity.
	Stats = core.Stats
	// DeadlockError reports a run that stopped making progress, with
	// the hang classified and the culprit stream and port named (see
	// docs/ROBUSTNESS.md).
	DeadlockError = core.DeadlockError
	// HangClass classifies a DeadlockError.
	HangClass = core.HangClass
	// MachineError is an invariant violation recovered by RunContext:
	// the machine is wedged, but the failure arrives as an error naming
	// the unit, component and cycle, never as a panic.
	MachineError = core.MachineError
	// CanceledError is a run ended early by its context (caller cancel
	// or wall-clock deadline): the machine was healthy, the host gave
	// up. Returned by RunContext; unwraps to the context
	// cause, so errors.Is(err, context.Canceled) works.
	CanceledError = core.CanceledError
	// Memory is the byte-addressable functional backing store.
	Memory = mem.Memory
)

// Scheduling modes for Config.Sched (see docs/SIMKERNEL.md); every
// mode simulates the same cycles.
const (
	SchedSpans    = core.SchedSpans
	SchedPerCycle = core.SchedPerCycle
)

// Hang classes a DeadlockError can carry.
const (
	HangUnknown           = core.HangUnknown
	HangWatchdog          = core.HangWatchdog
	HangPortUndersupply   = core.HangPortUndersupply
	HangPortOversupply    = core.HangPortOversupply
	HangStarvedRecurrence = core.HangStarvedRecurrence
	HangDrainedUnread     = core.HangDrainedUnread
	HangBarrierDeadlock   = core.HangBarrierDeadlock
)

// Dataflow graphs (see internal/dfg).
type (
	// Graph is a dataflow graph: the computation abstraction.
	Graph = dfg.Graph
	// GraphBuilder constructs Graphs programmatically.
	GraphBuilder = dfg.Builder
	// Ref names a dataflow value (port word, node result or immediate).
	Ref = dfg.Ref
	// Op is one dataflow operation at a sub-word lane width.
	Op = dfg.Op
	// Evaluator executes a Graph functionally, instance by instance.
	Evaluator = dfg.Evaluator
)

// Hardware description and compilation (see internal/cgra and
// internal/sched).
type (
	// Fabric describes the CGRA: PE grid, FU mix, links, vector ports.
	Fabric = cgra.Fabric
	// Schedule is a compiled CGRA configuration for one Graph.
	Schedule = cgra.Schedule
	// PowerModel converts run statistics into power and energy.
	PowerModel = power.Model
)

// ISA values (see internal/isa): the Table 2 command set.
type (
	// Command is one stream-dataflow command.
	Command = isa.Command
	// Affine is the two-dimensional affine access pattern of Figure 5.
	Affine = isa.Affine
	// InPortID and OutPortID name hardware vector ports.
	InPortID  = isa.InPortID
	OutPortID = isa.OutPortID
	// ElemSize is a stream element size in bytes.
	ElemSize = isa.ElemSize

	ConfigCmd       = isa.Config // SD_Config (machine Config is the struct above)
	MemScratch      = isa.MemScratch
	ScratchPort     = isa.ScratchPort
	MemPort         = isa.MemPort
	ConstPort       = isa.ConstPort
	CleanPort       = isa.CleanPort
	PortPort        = isa.PortPort
	PortScratch     = isa.PortScratch
	PortMem         = isa.PortMem
	IndPortPort     = isa.IndPortPort
	IndPortMem      = isa.IndPortMem
	BarrierScratchR = isa.BarrierScratchRd
	BarrierScratchW = isa.BarrierScratchWr
	BarrierAll      = isa.BarrierAll
)

// Element sizes.
const (
	Elem8  = isa.Elem8
	Elem16 = isa.Elem16
	Elem32 = isa.Elem32
	Elem64 = isa.Elem64
)

// DefaultConfig is the broadly provisioned Softbrain of Section 7.2.
func DefaultConfig() Config { return core.DefaultConfig() }

// DNNConfig is the DianNao-comparison configuration of Section 7.1.
func DNNConfig() Config { return core.DNNConfig() }

// NewCluster builds n units over shared memory; n = 1 is one Softbrain
// unit.
func NewCluster(cfg Config, n int) (*Cluster, error) { return core.NewCluster(cfg, n) }

// NewProgram starts an empty stream-dataflow program.
func NewProgram(name string) *Program { return core.NewProgram(name) }

// NewGraph starts a dataflow-graph builder.
func NewGraph(name string) *GraphBuilder { return dfg.NewBuilder(name) }

// ParseGraph reads a graph in the .dfg text format.
func ParseGraph(text string) (*Graph, error) { return dfg.ParseString(text) }

// Compile schedules g onto f: placement, routing, delay matching and
// vector-port mapping.
func Compile(f *Fabric, g *Graph) (*Schedule, error) { return sched.Schedule(f, g) }

// NewPowerModel builds the Table 3 power/area model for cfg.
func NewPowerModel(cfg Config) *PowerModel { return power.NewModel(cfg) }

// Static hazard analysis (see internal/lint and docs/LINT.md): the
// barrier semantics of Section 3.3 make unordered overlapping streams
// undefined, and the linter diagnoses them before anything runs.

// LintFinding is one statically diagnosed hazard in a program.
type LintFinding = lint.Finding

// LintProgram statically checks p against the machine configuration
// that would run it; findings are returned in trace order.
func LintProgram(p *Program, cfg Config) ([]LintFinding, error) { return lint.Check(p, cfg) }

// LintResult is a full analysis result: findings plus the per-check
// bytes-checked totals.
type LintResult = lint.Result

// LintRegion declares one shared DRAM byte range [Lo, Hi) of a checked
// cluster pipeline: the only bytes where inter-unit overlap involving a
// writer is legal, under the single-writer phase-ordered rules.
type LintRegion = lint.Region

// ClusterLintOpts tunes a cluster-scope analysis.
type ClusterLintOpts = lint.ClusterOpts

// LintCluster statically checks one concurrent program set (one
// program per unit) for inter-unit hazards over shared DRAM.
func LintCluster(progs []*Program, cfg Config, o ClusterLintOpts) (LintResult, error) {
	return lint.CheckCluster(progs, cfg, o)
}

// LintPipeline statically checks a phased program set: phases run
// sequentially, units within a phase run concurrently, and the phase
// boundary is the only inter-unit ordering.
func LintPipeline(phases [][]*Program, cfg Config, o ClusterLintOpts) (LintResult, error) {
	return lint.CheckPipeline(phases, cfg, o)
}

// ClusterLintHook adapts the cluster analysis to Cluster.Lint; once
// installed, RunContext and RunPipeline refuse a racy program set
// before any unit loads. It runs LintProgram's checks on every program
// too, so it vets a one-unit cluster's lone program as well:
//
//	cl.Lint = softbrain.ClusterLintHook(cfg, softbrain.ClusterLintOpts{})
func ClusterLintHook(cfg Config, o ClusterLintOpts) func([][]*Program) error {
	return lint.ClusterHook(cfg, o)
}

// FixReport describes the barrier edits FixProgram made: the inserted
// and removed barriers with their positions and reasons, plus the
// before/after barrier counts.
type FixReport = fix.Report

// FixProgram returns a barrier-repaired copy of p: the weakest
// sufficient barrier is inserted at every diagnosed race, and every
// barrier whose removal provably creates no new hazard is deleted. The
// input program is not modified. See internal/fix and docs/LINT.md.
func FixProgram(p *Program, cfg Config) (*Program, *FixReport, error) { return fix.Fix(p, cfg) }

// FixOpts configures FixProgramWithOpts: a measured per-barrier drain
// profile (the barrier_drains section of a metrics dump; see
// BarrierProfile) enables profile-guided cost-aware barrier placement.
type FixOpts = fix.HoistOpts

// BarrierProfile is per-barrier drain cycles keyed by trace position;
// extract one from a metrics dump unit with fix.ProfileFromUnit.
type BarrierProfile = fix.Profile

// FixProgramWithOpts is FixProgram plus cost-aware placement: barriers
// with profiled drain cycles are hoisted within their legal placement
// intervals so the drain overlaps unrelated in-flight streams. With a
// zero FixOpts it is exactly FixProgram. See docs/LINT.md ("Placement
// intervals & cost-aware hoisting").
func FixProgramWithOpts(p *Program, cfg Config, o FixOpts) (*Program, *FixReport, error) {
	return fix.FixWithOpts(p, cfg, o)
}

// BarrierInterval is one barrier's legal placement range: the
// contiguous slots where it still orders every race pair it protects
// and creates no new hazard.
type BarrierInterval = fix.Interval

// BarrierIntervals computes the legal placement interval of every
// barrier in p, in trace order.
func BarrierIntervals(p *Program, cfg Config) ([]BarrierInterval, error) {
	return fix.Intervals(p, cfg)
}

// Fault injection (see internal/faults and docs/ROBUSTNESS.md).

// FaultConfig describes a deterministic seeded fault profile; assign a
// pointer to Config.Faults to run a machine or cluster under it.
type FaultConfig = faults.Config

// FaultStats counts the faults an injector actually delivered.
type FaultStats = faults.Stats

// FaultProfiles lists the named fault profiles.
func FaultProfiles() []string { return faults.Profiles() }

// FaultProfile returns the named fault profile with the given seed.
func FaultProfile(name string, seed int64) (FaultConfig, error) { return faults.Profile(name, seed) }

// NewFabric builds a custom fabric; see also DefaultConfig().Fabric.
func NewFabric(rows, cols int) *Fabric {
	return cgra.NewFabric(rows, cols, dfg.FUAlu, dfg.FUMul, dfg.FUDiv, dfg.FUSig)
}

// Access-pattern constructors (Figure 5).

// Linear is a contiguous pattern of n bytes at start.
func Linear(start, n uint64) Affine { return isa.Linear(start, n) }

// Strided2D reads rows of rowBytes separated by pitch, rows times.
func Strided2D(start, rowBytes, pitch, rows uint64) Affine {
	return isa.Strided2D(start, rowBytes, pitch, rows)
}

// Repeat re-reads the same n bytes times times.
func Repeat(start, n, times uint64) Affine { return isa.Repeat(start, n, times) }

// Dataflow operation constructors; w is the lane width in bits
// (8, 16, 32 or 64 — sub-word SIMD packs 64/w lanes per word).

func Add(w uint8) Op    { return dfg.Add(w) }
func Sub(w uint8) Op    { return dfg.Sub(w) }
func Mul(w uint8) Op    { return dfg.Mul(w) }
func Div(w uint8) Op    { return dfg.Div(w) }
func Min(w uint8) Op    { return dfg.Min(w) }
func Max(w uint8) Op    { return dfg.Max(w) }
func Abs(w uint8) Op    { return dfg.Abs(w) }
func And(w uint8) Op    { return dfg.And(w) }
func Or(w uint8) Op     { return dfg.Or(w) }
func Xor(w uint8) Op    { return dfg.Xor(w) }
func Shl(w uint8) Op    { return dfg.Shl(w) }
func Shr(w uint8) Op    { return dfg.Shr(w) }
func Ashr(w uint8) Op   { return dfg.Ashr(w) }
func Eq(w uint8) Op     { return dfg.Eq(w) }
func Lt(w uint8) Op     { return dfg.Lt(w) }
func Sel(w uint8) Op    { return dfg.Sel(w) }
func Acc(w uint8) Op    { return dfg.Acc(w) }
func AccMin(w uint8) Op { return dfg.AccMin(w) }
func AccMax(w uint8) Op { return dfg.AccMax(w) }
func RedAdd(w uint8) Op { return dfg.RedAdd(w) }
func RedMin(w uint8) Op { return dfg.RedMin(w) }
func Sig(w uint8) Op    { return dfg.Sig(w) }

// ImmRef references a constant folded into the PE configuration.
func ImmRef(v uint64) Ref { return dfg.ImmRef(v) }
