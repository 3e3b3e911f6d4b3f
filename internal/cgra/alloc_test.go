package cgra_test

import (
	"testing"

	"softbrain/internal/cgra"
	"softbrain/internal/core"
	"softbrain/internal/workloads/machsuite"
)

// TestDecodeConfigAllocs bounds the allocations of decoding gemm's
// configuration: the bit reader loads words in place, so what remains
// is the decoded graph and schedule themselves (about 270 allocations).
// A reader that allocates per word, as encoding/binary.Read does, costs
// about 885.
func TestDecodeConfigAllocs(t *testing.T) {
	const maxAllocs = 400
	cfg := core.DefaultConfig()
	e, err := machsuite.Find("gemm")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := e.Build(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	blobs := inst.Progs[0].Configs
	if len(blobs) != 1 {
		t.Fatalf("gemm carries %d configurations, want 1", len(blobs))
	}
	for addr, blob := range blobs {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := cgra.DecodeConfig(cfg.Fabric, blob); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("decoding the %d-byte configuration at %#x: %v allocations", len(blob), addr, allocs)
		if allocs > maxAllocs {
			t.Errorf("DecodeConfig allocates %v times, want at most %d", allocs, maxAllocs)
		}
	}
}
