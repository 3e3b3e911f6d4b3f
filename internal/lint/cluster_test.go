package lint_test

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/dfg"
	"softbrain/internal/isa"
	"softbrain/internal/lint"
	"softbrain/internal/progen"
	"softbrain/internal/workloads/catalog"
)

// clusterProg builds one addpair unit program over a shared cfg.
func clusterProg(t *testing.T, cfg core.Config, name string) *core.Program {
	t.Helper()
	b := dfg.NewBuilder("addpair")
	a := b.Input("A", 1)
	v := b.Input("B", 1)
	b.Output("C", b.N(dfg.Add(64), a.W(0), v.W(0)))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewProgram(name)
	p.CompileAndConfigure(cfg.Fabric, g)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	return p
}

// stepRW emits one balanced, barrier-terminated step on p that reads
// 8*n bytes at src and writes 8*n bytes at dst, returning the trace
// indices of the read and the write.
func stepRW(t *testing.T, p *core.Program, src, dst uint64, n uint64) (rd, wr int) {
	t.Helper()
	rd = emit(t, p, isa.MemPort{Src: isa.Linear(src, 8*n), Dst: p.In("A")})
	emit(t, p, isa.ConstPort{Value: 1, Elem: isa.Elem64, Count: n, Dst: p.In("B")})
	wr = emit(t, p, isa.PortMem{Src: p.Out("C"), Dst: isa.Linear(dst, 8*n)})
	emit(t, p, isa.BarrierAll{})
	return rd, wr
}

// idleProg builds a balanced program with no DRAM access at all, for
// phases where a unit has nothing to do.
func idleProg(t *testing.T, cfg core.Config, name string) *core.Program {
	t.Helper()
	p := clusterProg(t, cfg, name)
	emit(t, p, isa.ConstPort{Value: 1, Elem: isa.Elem64, Count: 1, Dst: p.In("A")})
	emit(t, p, isa.ConstPort{Value: 2, Elem: isa.Elem64, Count: 1, Dst: p.In("B")})
	emit(t, p, isa.CleanPort{Src: p.Out("C"), Elem: isa.Elem64, Count: 1})
	emit(t, p, isa.BarrierAll{})
	return p
}

// cprobe is the shape one cluster finding must have.
type cprobe struct {
	check, code            string
	unit, otherUnit, phase int
}

// checkCluster runs the pipeline analysis and compares finding shapes.
func checkCluster(t *testing.T, phases [][]*core.Program, cfg core.Config, o lint.ClusterOpts, want []cprobe) lint.Result {
	t.Helper()
	r, err := lint.CheckPipeline(phases, cfg, o)
	if err != nil {
		t.Fatalf("CheckPipeline: %v", err)
	}
	var got []cprobe
	for _, f := range r.Findings {
		got = append(got, cprobe{f.Check, f.Code, f.Unit, f.OtherUnit, f.Phase})
	}
	if len(got) != len(want) {
		t.Fatalf("findings = %v, want %v\nfull: %v", got, want, r.Findings)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("finding %d = %v, want %v\nfull: %v", i, got[i], want[i], r.Findings)
		}
	}
	return r
}

func TestClusterDisjointClean(t *testing.T) {
	cfg := core.DefaultConfig()
	p0 := clusterProg(t, cfg, "u0")
	stepRW(t, p0, 0x1_0000, 0x2_0000, 8)
	p1 := clusterProg(t, cfg, "u1")
	stepRW(t, p1, 0x3_0000, 0x4_0000, 8)
	r := checkCluster(t, [][]*core.Program{{p0, p1}}, cfg, lint.ClusterOpts{}, nil)
	if r.Bytes[lint.CheckInterUnit] != 4*64 {
		t.Fatalf("bytes[%s] = %d, want %d", lint.CheckInterUnit, r.Bytes[lint.CheckInterUnit], 4*64)
	}
}

func TestClusterWriteReadOverlap(t *testing.T) {
	cfg := core.DefaultConfig()
	p0 := clusterProg(t, cfg, "u0")
	_, wr := stepRW(t, p0, 0x3_0000, 0x1_0000, 8) // writes [0x1_0000, 0x1_0040)
	p1 := clusterProg(t, cfg, "u1")
	rd, _ := stepRW(t, p1, 0x1_0020, 0x4_0000, 8) // reads [0x1_0020, 0x1_0060)
	r := checkCluster(t, [][]*core.Program{{p0, p1}}, cfg, lint.ClusterOpts{},
		[]cprobe{{lint.CheckInterUnit, "inter-unit-overlap", 1, 0, 0}})
	f := r.Findings[0]
	if f.Index != rd || f.Other != wr {
		t.Fatalf("finding anchors = (%d, %d), want (%d, %d)", f.Index, f.Other, rd, wr)
	}
	if f.Prog != "u1" {
		t.Fatalf("finding prog = %q, want u1", f.Prog)
	}
	if !strings.Contains(f.Msg, "[0x10020, 0x10040)") {
		t.Fatalf("finding message lacks the overlap extent: %s", f.Msg)
	}
}

func TestClusterWriteWriteOverlap(t *testing.T) {
	cfg := core.DefaultConfig()
	p0 := clusterProg(t, cfg, "u0")
	stepRW(t, p0, 0x3_0000, 0x1_0000, 8)
	p1 := clusterProg(t, cfg, "u1")
	stepRW(t, p1, 0x4_0000, 0x1_0000, 8)
	checkCluster(t, [][]*core.Program{{p0, p1}}, cfg, lint.ClusterOpts{},
		[]cprobe{{lint.CheckInterUnit, "inter-unit-overlap", 1, 0, 0}})
}

func TestClusterReadReadClean(t *testing.T) {
	// Undeclared read-read sharing is legal: broadcast inputs are
	// schedule-independent (the dnn units share one activation image).
	cfg := core.DefaultConfig()
	p0 := clusterProg(t, cfg, "u0")
	stepRW(t, p0, 0x1_0000, 0x2_0000, 8)
	p1 := clusterProg(t, cfg, "u1")
	stepRW(t, p1, 0x1_0000, 0x3_0000, 8)
	checkCluster(t, [][]*core.Program{{p0, p1}}, cfg, lint.ClusterOpts{}, nil)
}

func TestClusterCrossPhaseOverlapUndeclared(t *testing.T) {
	// The same write/read overlap as TestClusterWriteReadOverlap with
	// the reader moved to the next phase. The phase boundary happens to
	// order the pair, but undeclared cross-unit sharing still violates
	// the disjoint-partitioning discipline — declaring the shared region
	// (TestClusterRegionPipelineClean) is what legalizes it.
	cfg := core.DefaultConfig()
	p0 := clusterProg(t, cfg, "u0")
	stepRW(t, p0, 0x3_0000, 0x1_0000, 8)
	p1 := clusterProg(t, cfg, "u1")
	stepRW(t, p1, 0x1_0020, 0x4_0000, 8)
	phases := [][]*core.Program{
		{p0, idleProg(t, cfg, "u1-idle")},
		{idleProg(t, cfg, "u0-idle"), p1},
	}
	checkCluster(t, phases, cfg, lint.ClusterOpts{},
		[]cprobe{{lint.CheckInterUnit, "inter-unit-overlap", 1, 0, 1}})
}

func TestClusterStrictIndirect(t *testing.T) {
	cfg := core.DefaultConfig()
	p0 := clusterProg(t, cfg, "u0")
	// Indices staged from DRAM the value pass cannot see: the gather
	// footprint is data-dependent.
	ind := p0.IndirectIn(cfg.Fabric, 0)
	gather := emit(t, p0, isa.MemPort{Src: isa.Linear(0x5_0000, 16), Dst: ind})
	emit(t, p0, isa.IndPortPort{
		Idx: ind, IdxElem: isa.Elem32,
		Offset: 0x1_0000, Scale: 4, DataElem: isa.Elem32, Count: 4,
		Dst: p0.In("A"),
	})
	emit(t, p0, isa.ConstPort{Value: 1, Elem: isa.Elem64, Count: 2, Dst: p0.In("B")})
	emit(t, p0, isa.CleanPort{Src: p0.Out("C"), Elem: isa.Elem64, Count: 2})
	emit(t, p0, isa.BarrierAll{})
	_ = gather

	p1 := clusterProg(t, cfg, "u1")
	stepRW(t, p1, 0x6_0000, 0x7_0000, 8)

	// Default: the unresolved footprint is silently excluded.
	checkCluster(t, [][]*core.Program{{p0, p1}}, cfg, lint.ClusterOpts{}, nil)

	// Strict: it conflicts with every other unit's write.
	r, err := lint.CheckCluster([]*core.Program{p0, p1}, cfg,
		lint.ClusterOpts{Opts: lint.Opts{StrictIndirect: true}})
	if err != nil {
		t.Fatal(err)
	}
	var hit bool
	for _, f := range r.Findings {
		if f.Code == "inter-unit-indirect" && f.Unit == 0 && f.OtherUnit == 1 {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("strict indirect analysis reported no inter-unit-indirect finding: %v", r.Findings)
	}
}

func TestClusterRegionPipelineClean(t *testing.T) {
	// The checked shared-region pipeline: unit 0 produces into a declared
	// region in phase 0, unit 1 consumes it in phase 1.
	cfg := core.DefaultConfig()
	region := lint.Region{Name: "stage", Lo: 0x1_0000, Hi: 0x1_0040}
	p0 := clusterProg(t, cfg, "producer")
	stepRW(t, p0, 0x3_0000, 0x1_0000, 8)
	p1 := clusterProg(t, cfg, "consumer")
	stepRW(t, p1, 0x1_0000, 0x4_0000, 8)
	phases := [][]*core.Program{
		{p0, idleProg(t, cfg, "idle0")},
		{idleProg(t, cfg, "idle1"), p1},
	}
	checkCluster(t, phases, cfg, lint.ClusterOpts{Regions: []lint.Region{region}}, nil)
}

func TestClusterRegionSamePhaseRead(t *testing.T) {
	cfg := core.DefaultConfig()
	region := lint.Region{Name: "stage", Lo: 0x1_0000, Hi: 0x1_0040}
	p0 := clusterProg(t, cfg, "producer")
	stepRW(t, p0, 0x3_0000, 0x1_0000, 8)
	p1 := clusterProg(t, cfg, "consumer")
	stepRW(t, p1, 0x1_0000, 0x4_0000, 8)
	checkCluster(t, [][]*core.Program{{p0, p1}}, cfg,
		lint.ClusterOpts{Regions: []lint.Region{region}},
		[]cprobe{{lint.CheckSharedRegion, "region-unordered-read", 1, 0, 0}})
}

func TestClusterRegionMultiWriter(t *testing.T) {
	cfg := core.DefaultConfig()
	region := lint.Region{Name: "stage", Lo: 0x1_0000, Hi: 0x1_0080}
	p0 := clusterProg(t, cfg, "w0")
	stepRW(t, p0, 0x3_0000, 0x1_0000, 8)
	p1 := clusterProg(t, cfg, "w1")
	stepRW(t, p1, 0x4_0000, 0x1_0040, 8)
	checkCluster(t, [][]*core.Program{{p0, p1}}, cfg,
		lint.ClusterOpts{Regions: []lint.Region{region}},
		[]cprobe{{lint.CheckSharedRegion, "region-multi-writer", 1, 0, 0}})
}

func TestClusterRegionStraddle(t *testing.T) {
	cfg := core.DefaultConfig()
	region := lint.Region{Name: "stage", Lo: 0x1_0000, Hi: 0x1_0040}
	p0 := clusterProg(t, cfg, "u0")
	// The write starts 16 bytes before the region and reaches into it.
	stepRW(t, p0, 0x3_0000, 0x1_0000-16, 8)
	p1 := idleProg(t, cfg, "u1")
	checkCluster(t, [][]*core.Program{{p0, p1}}, cfg,
		lint.ClusterOpts{Regions: []lint.Region{region}},
		[]cprobe{{lint.CheckSharedRegion, "region-straddle", 0, -1, 0}})
}

func TestClusterRegionValidation(t *testing.T) {
	cfg := core.DefaultConfig()
	p := idleProg(t, cfg, "u0")
	phases := [][]*core.Program{{p}}
	for _, bad := range [][]lint.Region{
		{{Name: "empty", Lo: 0x100, Hi: 0x100}},
		{{Name: "inverted", Lo: 0x200, Hi: 0x100}},
		{{Name: "config", Lo: core.ConfigSpace - 8, Hi: core.ConfigSpace + 8}},
		{{Name: "a", Lo: 0x100, Hi: 0x300}, {Name: "b", Lo: 0x200, Hi: 0x400}},
	} {
		if _, err := lint.CheckPipeline(phases, cfg, lint.ClusterOpts{Regions: bad}); err == nil {
			t.Errorf("regions %v: want error, got none", bad)
		}
	}
}

func TestClusterPhaseShapeErrors(t *testing.T) {
	cfg := core.DefaultConfig()
	p := idleProg(t, cfg, "u0")
	if _, err := lint.CheckPipeline(nil, cfg, lint.ClusterOpts{}); err == nil {
		t.Error("empty pipeline: want error, got none")
	}
	if _, err := lint.CheckPipeline([][]*core.Program{{p, p}, {p}}, cfg, lint.ClusterOpts{}); err == nil {
		t.Error("ragged phases: want error, got none")
	}
	if _, err := lint.CheckPipeline([][]*core.Program{{p, nil}}, cfg, lint.ClusterOpts{}); err == nil {
		t.Error("nil program: want error, got none")
	}
}

// TestClusterWorkloadsClean is the cluster-scope regression gate: every
// shipped workload instance — including the 8-unit dnn layers, whose
// units deliberately share a read-only input image — passes the cluster
// analysis with zero findings.
func TestClusterWorkloadsClean(t *testing.T) {
	assert := func(name string, progs []*core.Program, cfg core.Config) {
		r, err := lint.CheckCluster(progs, cfg, lint.ClusterOpts{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		for _, f := range r.Findings {
			t.Errorf("%s: %v", name, f)
		}
	}
	for _, e := range catalog.All() {
		cfg := e.Config()
		inst, err := e.Build(cfg, 1)
		if err != nil {
			t.Fatalf("%s/%s: %v", e.Suite, e.Name, err)
		}
		assert(e.Suite+"/"+e.Name, inst.Progs, cfg)
	}
}

// TestClusterProgenSoak fuzzes the cluster analysis with generated unit
// sets: disjoint rebased sets must be clean, and every seeded hazard
// must be detected naming the offending unit pair.
func TestClusterProgenSoak(t *testing.T) {
	cfg := core.DefaultConfig()
	const units = 3
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, ports, err := progen.Addpair(cfg)
		if err != nil {
			t.Fatal(err)
		}

		clean := progen.ClusterCommands(rng, ports, units, -1)
		progs, err := progen.ClusterPrograms(cfg, clean)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r, err := lint.CheckCluster(progs, cfg, lint.ClusterOpts{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(r.Findings) != 0 {
			t.Fatalf("seed %d: disjoint set has findings: %v", seed, r.Findings)
		}

		hazardUnit := int(seed) % units
		victim := (hazardUnit + 1) % units
		seeded := progen.ClusterCommands(rand.New(rand.NewSource(seed)), ports, units, hazardUnit)
		progs, err = progen.ClusterPrograms(cfg, seeded)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r, err = lint.CheckCluster(progs, cfg, lint.ClusterOpts{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var hit bool
		for _, f := range r.Findings {
			if f.Check != lint.CheckInterUnit {
				t.Fatalf("seed %d: unexpected %s finding: %v", seed, f.Check, f)
			}
			pair := [2]int{f.Unit, f.OtherUnit}
			if pair == [2]int{hazardUnit, victim} || pair == [2]int{victim, hazardUnit} {
				hit = true
			} else {
				t.Fatalf("seed %d: finding names units %v, want {%d, %d}: %v", seed, pair, hazardUnit, victim, f)
			}
		}
		if !hit {
			t.Fatalf("seed %d: seeded hazard between units %d and %d not detected", seed, hazardUnit, victim)
		}
	}
}

// TestClusterHookRefuses wires the analysis into the core strict-run
// contract: the hook accepts a disjoint set and refuses a racy one.
func TestClusterHookRefuses(t *testing.T) {
	cfg := core.DefaultConfig()
	hook := lint.ClusterHook(cfg, lint.ClusterOpts{})

	p0 := clusterProg(t, cfg, "u0")
	stepRW(t, p0, 0x1_0000, 0x2_0000, 8)
	p1 := clusterProg(t, cfg, "u1")
	stepRW(t, p1, 0x3_0000, 0x4_0000, 8)
	if err := hook([][]*core.Program{{p0, p1}}); err != nil {
		t.Fatalf("disjoint set refused: %v", err)
	}

	p2 := clusterProg(t, cfg, "u2")
	stepRW(t, p2, 0x4_0000, 0x2_0020, 8) // write overlaps u0's write
	err := hook([][]*core.Program{{p0, p2}})
	if err == nil {
		t.Fatal("racy set accepted")
	}
	if !strings.Contains(err.Error(), "inter-unit") {
		t.Fatalf("refusal does not name the inter-unit hazard: %v", err)
	}
}

// TestClusterRunContextHooked installs the hook on a live cluster:
// RunContext refuses an inter-unit race before any unit loads (no
// configuration reaches the memory image) and runs a disjoint set.
func TestClusterRunContextHooked(t *testing.T) {
	cfg := core.DefaultConfig()
	cl, err := core.NewCluster(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl.Lint = lint.ClusterHook(cfg, lint.ClusterOpts{})

	p0 := clusterProg(t, cfg, "u0")
	stepRW(t, p0, 0x1_0000, 0x2_0000, 8)
	racy := clusterProg(t, cfg, "racy")
	stepRW(t, racy, 0x4_0000, 0x2_0020, 8) // write overlaps u0's write
	_, err = cl.RunContext(context.Background(), []*core.Program{p0, racy})
	if err == nil || !strings.Contains(err.Error(), "inter-unit") {
		t.Fatalf("hooked RunContext(racy set) = %v, want the inter-unit refusal", err)
	}
	for _, p := range []*core.Program{p0, racy} {
		for addr, blob := range p.Configs {
			got := make([]byte, len(blob))
			cl.Mem.Read(addr, got)
			if !bytes.Equal(got, make([]byte, len(blob))) {
				t.Fatalf("refused run loaded %s: its configuration is at %#x", p.Name, addr)
			}
		}
	}

	p1 := clusterProg(t, cfg, "u1")
	stepRW(t, p1, 0x3_0000, 0x4_0000, 8)
	stats, err := cl.RunContext(context.Background(), []*core.Program{p0, p1})
	if err != nil {
		t.Fatalf("hooked RunContext(disjoint set) = %v", err)
	}
	if stats.Instances != 16 {
		t.Fatalf("instances = %d, want 16", stats.Instances)
	}
}
