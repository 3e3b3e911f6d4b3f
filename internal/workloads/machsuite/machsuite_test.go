package machsuite

import (
	"context"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/workloads"
)

// TestAllWorkloadsVerify runs every implemented MachSuite workload on
// the broadly provisioned Softbrain and checks its output against the
// golden model.
func TestAllWorkloadsVerify(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			inst, err := e.Build(cfg, 1)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			_, stats, err := inst.Run(context.Background(), cfg, workloads.RunOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Instances == 0 {
				t.Error("no CGRA instances fired")
			}
			if inst.Profile.KernelOps == 0 {
				t.Error("empty baseline profile")
			}
			if inst.Kernel == nil || inst.Kernel.Iters == 0 {
				t.Error("empty ASIC kernel")
			}
			if inst.Patterns == "" || inst.Datapath == "" {
				t.Error("missing Table 4 characterization")
			}
			t.Logf("%-14s %8d cycles %8d instances %6d commands",
				e.Name, stats.Cycles, stats.Instances, stats.Commands)
		})
	}
}

func TestUnsuitableCodesListed(t *testing.T) {
	u := UnsuitableCodes()
	if len(u) != 4 {
		t.Fatalf("%d unsuitable codes, want 4", len(u))
	}
	for _, c := range u {
		if c.Name == "" || c.Reason == "" {
			t.Errorf("incomplete entry %+v", c)
		}
	}
}

func TestFind(t *testing.T) {
	if _, err := Find("gemm"); err != nil {
		t.Error(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("unknown workload found")
	}
}
