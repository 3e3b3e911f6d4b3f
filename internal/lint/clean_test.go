package lint_test

import (
	"fmt"
	"testing"

	"softbrain/examples/programs"
	"softbrain/internal/core"
	"softbrain/internal/lint"
	"softbrain/internal/workloads/catalog"
)

// assertClean lints p and fails the test on any finding at all —
// shipped programs must be warning-free too.
func assertClean(t *testing.T, name string, p *core.Program, cfg core.Config) {
	t.Helper()
	fs, err := lint.Check(p, cfg)
	if err != nil {
		t.Errorf("%s: Check: %v", name, err)
		return
	}
	for _, f := range fs {
		t.Errorf("%s: %v", name, f)
	}
}

// TestWorkloadsLintClean is the regression gate: every shipped workload
// program passes the linter with zero findings.
func TestWorkloadsLintClean(t *testing.T) {
	for _, e := range catalog.All() {
		cfg := e.Config()
		inst, err := e.Build(cfg, 1)
		if err != nil {
			t.Fatalf("%s/%s: %v", e.Suite, e.Name, err)
		}
		for i, p := range inst.Progs {
			assertClean(t, fmt.Sprintf("%s/%s#%d", e.Suite, e.Name, i), p, cfg)
		}
	}
}

// TestExamplesLintClean asserts the example programs lint clean under
// their own configurations.
func TestExamplesLintClean(t *testing.T) {
	exs, err := programs.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range exs {
		assertClean(t, "examples/"+ex.Name, ex.Prog, ex.Cfg)
	}
}
