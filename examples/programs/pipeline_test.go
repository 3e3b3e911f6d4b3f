package programs_test

import (
	"testing"

	"softbrain/examples/programs"
)

// TestPipelineStrictRun proves the shared-region pipeline example does
// what docs/LINT.md promises: it passes the cluster linter (the strict
// run refuses otherwise) and its golden-model check.
func TestPipelineStrictRun(t *testing.T) {
	e, err := programs.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineUndeclaredRegionRefused strips the region declaration and
// expects the strict run to refuse the same programs: the overlap on
// the staging buffer is only legal because it is declared and ordered.
func TestPipelineUndeclaredRegionRefused(t *testing.T) {
	e, err := programs.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	e.Regions = nil
	if _, _, err := e.Run(); err == nil {
		t.Fatal("undeclared shared region accepted by the strict run")
	}
}
