package programs_test

import (
	"testing"

	"softbrain/examples/programs"
)

// TestPipelineStrictRun proves the shared-region pipeline example does
// what docs/LINT.md promises: it passes the cluster linter (the hooked
// RunPipeline refuses otherwise) and its golden-model check. Its totals
// are the sum of its two phases, 65 instances and 8 commands each: a
// phase does not count the phases before it again.
func TestPipelineStrictRun(t *testing.T) {
	e, err := programs.Pipeline()
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instances != 130 || stats.Commands != 16 {
		t.Fatalf("pipeline totals %d instances, %d commands; want 130 and 16", stats.Instances, stats.Commands)
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
