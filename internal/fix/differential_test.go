package fix_test

import (
	"context"
	"fmt"
	"testing"

	"softbrain/examples/programs"
	"softbrain/internal/core"
	"softbrain/internal/fix"
	"softbrain/internal/lint"
	"softbrain/internal/mem"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/catalog"
)

// fixProgs runs the fix pass over each program and asserts the shipped
// invariants: the fixed program lints clean, and fixing never adds
// barriers to a program that already lints clean.
func fixProgs(t *testing.T, progs []*core.Program, cfg core.Config) []*core.Program {
	t.Helper()
	fixed := make([]*core.Program, len(progs))
	for i, p := range progs {
		q, rep, err := fix.Fix(p, cfg)
		if err != nil {
			t.Fatalf("fixing unit %d: %v", i, err)
		}
		if rep.BarriersAfter > rep.BarriersBefore {
			t.Fatalf("unit %d: fix grew the barrier count: %v", i, rep)
		}
		fs, err := lint.Check(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			if f.Sev == lint.SevError {
				t.Fatalf("unit %d: fixed program has finding: %v", i, f)
			}
		}
		fixed[i] = q
	}
	return fixed
}

// runCluster executes one program set the way Instance.run does and
// returns the final memory image.
func runCluster(t *testing.T, inst *workloads.Instance, cfg core.Config, progs []*core.Program) *mem.Memory {
	t.Helper()
	cl, err := core.NewCluster(cfg, len(progs))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Init != nil {
		inst.Init(cl.Mem)
	}
	if _, err := cl.RunContext(context.Background(), progs); err != nil {
		t.Fatalf("running: %v", err)
	}
	return cl.Mem
}

// TestFixPreservesWorkloads is the differential regression over every
// shipped workload: the fix pass must be semantics-preserving (the
// fixed programs produce a byte-identical memory image and still pass
// the golden check) and must never add a barrier.
func TestFixPreservesWorkloads(t *testing.T) {
	type entry struct {
		name string
		inst *workloads.Instance
		cfg  core.Config
	}
	var entries []entry
	for _, e := range catalog.All() {
		cfg := e.Config()
		inst, err := e.Build(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, entry{e.Suite + "/" + e.Name, inst, cfg})
	}

	for _, e := range entries {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			fixed := fixProgs(t, e.inst.Progs, e.cfg)
			want := runCluster(t, e.inst, e.cfg, e.inst.Progs)
			got := runCluster(t, e.inst, e.cfg, fixed)
			if addr, diff := got.FirstDiff(want); diff {
				t.Fatalf("memory diverges at %#x after fix", addr)
			}
			if e.inst.Check != nil {
				if err := e.inst.Check(got); err != nil {
					t.Fatalf("golden check on fixed run: %v", err)
				}
			}
		})
	}
}

// TestFixPreservesExamples is the same differential over the example
// programs, which run on their own machine configurations.
func TestFixPreservesExamples(t *testing.T) {
	exs, err := programs.All()
	if err != nil {
		t.Fatal(err)
	}
	run := func(e programs.Example, p *core.Program) (*mem.Memory, error) {
		cl, err := core.NewCluster(e.Cfg, 1)
		if err != nil {
			return nil, err
		}
		e.Init(cl.Mem)
		if _, err := cl.RunContext(context.Background(), []*core.Program{p}); err != nil {
			return nil, fmt.Errorf("running: %w", err)
		}
		return cl.Mem, nil
	}
	for _, e := range exs {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			fixed := fixProgs(t, []*core.Program{e.Prog}, e.Cfg)[0]
			want, err := run(e, e.Prog)
			if err != nil {
				t.Fatal(err)
			}
			got, err := run(e, fixed)
			if err != nil {
				t.Fatal(err)
			}
			if addr, diff := got.FirstDiff(want); diff {
				t.Fatalf("memory diverges at %#x after fix", addr)
			}
			if err := e.Check(got); err != nil {
				t.Fatalf("golden check on fixed run: %v", err)
			}
		})
	}
}
