package fix_test

import (
	"context"
	"math/rand"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/fix"
	"softbrain/internal/isa"
	"softbrain/internal/lint"
	"softbrain/internal/mem"
	"softbrain/internal/progen"
)

// TestFixMatchesSerialized: for random programs, the fixed program must
// compute exactly what the fully serialized reference (an SD_Barrier_All
// after every command) computes — barriers the fix pass leaves out are
// provably unnecessary, barriers it adds restore program order where it
// matters.
func TestFixMatchesSerialized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, cfg := newProg(t)
		ind := p.IndirectIn(cfg.Fabric, 0)
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
		cmds := progen.Commands(rng, progen.Ports{A: p.In("A"), B: p.In("B"), Ind: ind, C: p.Out("C")})
		for _, c := range cmds {
			emit(t, p, c)
		}

		ser, _ := newProg(t)
		for _, c := range cmds {
			emit(t, ser, c)
			emit(t, ser, isa.BarrierAll{})
		}

		q, _, err := fix.Fix(p, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fs, err := lint.Check(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			if f.Sev == lint.SevError {
				t.Fatalf("seed %d: fixed program has finding: %v", seed, f)
			}
		}

		init := make([]byte, 64)
		irng := rand.New(rand.NewSource(seed + 1000))
		run := func(prog *core.Program) *mem.Memory {
			cl, err := core.NewCluster(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, base := range progen.MemPools {
				irng.Read(init)
				cl.Mem.Write(base, init)
			}
			if _, err := cl.RunContext(context.Background(), []*core.Program{prog}); err != nil {
				t.Fatalf("seed %d: running %s: %v", seed, prog.Name, err)
			}
			return cl.Mem
		}
		irng.Seed(seed + 1000)
		want := run(ser)
		irng.Seed(seed + 1000)
		got := run(q)
		if addr, diff := got.FirstDiff(want); diff {
			t.Fatalf("seed %d: fixed program diverges from serialized reference at %#x", seed, addr)
		}
	}
}
