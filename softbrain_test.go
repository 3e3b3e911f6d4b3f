package softbrain_test

import (
	"context"
	"testing"

	"softbrain"
)

// TestPublicAPIDotProduct drives the whole system through the public
// facade only: graph building, compilation, program emission, execution
// and the power model.
func TestPublicAPIDotProduct(t *testing.T) {
	cfg := softbrain.DefaultConfig()
	cl, err := softbrain.NewCluster(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}

	b := softbrain.NewGraph("dotprod")
	a := b.Input("A", 3)
	v := b.Input("B", 3)
	var prods []softbrain.Ref
	for i := 0; i < 3; i++ {
		prods = append(prods, b.N(softbrain.Mul(64), a.W(i), v.W(i)))
	}
	b.Output("C", b.ReduceTree(softbrain.Add(64), prods...))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	// The standalone compiler entry point also works.
	s, err := softbrain.Compile(cfg.Fabric, g)
	if err != nil {
		t.Fatal(err)
	}
	if s.Depth <= 0 {
		t.Error("schedule has no pipeline depth")
	}

	const n, aAddr, bAddr, rAddr = 24, 0x1000, 0x2000, 0x3000
	for i := uint64(0); i < n; i++ {
		cl.Mem.WriteU64(aAddr+8*i, i)
		cl.Mem.WriteU64(bAddr+8*i, i+1)
	}
	p := softbrain.NewProgram("dotprod")
	p.CompileAndConfigure(cfg.Fabric, g)
	p.Emit(softbrain.MemPort{Src: softbrain.Linear(aAddr, n*8), Dst: p.In("A")})
	p.Emit(softbrain.MemPort{Src: softbrain.Linear(bAddr, n*8), Dst: p.In("B")})
	p.Emit(softbrain.PortMem{Src: p.Out("C"), Dst: softbrain.Linear(rAddr, n/3*8)})
	p.Emit(softbrain.BarrierAll{})

	stats, err := cl.RunContext(context.Background(), []*softbrain.Program{p})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n/3; i++ {
		var want uint64
		for j := uint64(0); j < 3; j++ {
			k := 3*i + j
			want += k * (k + 1)
		}
		if got := cl.Mem.ReadU64(rAddr + 8*i); got != want {
			t.Errorf("r[%d] = %d, want %d", i, got, want)
		}
	}
	model := softbrain.NewPowerModel(cfg)
	if mw := model.AveragePower(stats, 1); mw <= 0 || mw > model.UnitPeakPower() {
		t.Errorf("power %.1f mW out of range", mw)
	}
}

// TestPublicAPIGraphText round-trips a graph through the text format.
func TestPublicAPIGraphText(t *testing.T) {
	g, err := softbrain.ParseGraph(`
dfg f
input X 1
abs64 a X
output O a
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := softbrain.Compile(softbrain.NewFabric(4, 4), g); err != nil {
		t.Fatal(err)
	}
}
