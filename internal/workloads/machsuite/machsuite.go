// Package machsuite implements the MachSuite workloads of Section 7.2
// as stream-dataflow programs, together with the golden models that
// verify them and the characterization of Table 4. The four codes the
// paper found unsuitable for stream-dataflow are recorded with their
// reasons rather than implemented, as in the paper.
package machsuite

import (
	"fmt"

	"softbrain/internal/core"
	"softbrain/internal/workloads"
)

// All returns the eight implemented MachSuite workloads, in the paper's
// order, each on the broadly provisioned single unit.
func All() []workloads.Entry {
	e := func(name, patterns, datapath string, build func(core.Config, int) (*workloads.Instance, error)) workloads.Entry {
		return workloads.Entry{Name: name, Suite: "machsuite", Patterns: patterns, Datapath: datapath,
			Config: core.DefaultConfig, Build: build}
	}
	return []workloads.Entry{
		e("bfs", "Indirect Loads/Stores, Recurrence", "Compare/Increment", BuildBFS),
		e("gemm", "Affine, Recurrence", "8-Way Multiply-Accumulate", BuildGEMM),
		e("md-knn", "Indirect Loads, Recurrence", "Large Irregular Datapath", BuildMDKNN),
		e("spmv-crs", "Indirect, Linear", "Single Multiply-Accumulate", BuildSpMVCRS),
		e("spmv-ellpack", "Indirect, Linear, Recurrence", "4-Way Multiply-Accumulate", BuildSpMVEllpack),
		e("stencil2d", "Affine, Recurrence", "8-Way Multiply-Accumulate", BuildStencil2D),
		e("stencil3d", "Affine", "6-1 Reduce and Multiplier Tree", BuildStencil3D),
		e("viterbi", "Recurrence, Linear", "4-Way Add-Minimize Tree", BuildViterbi),
	}
}

// Find returns the named workload entry.
func Find(name string) (workloads.Entry, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return workloads.Entry{}, fmt.Errorf("machsuite: unknown workload %q", name)
}

// Unsuitable describes a MachSuite code the stream-dataflow abstractions
// cannot express efficiently (Table 4, bottom).
type Unsuitable struct {
	Name   string
	Reason string
}

// UnsuitableCodes lists the paper's four rejected workloads.
func UnsuitableCodes() []Unsuitable {
	return []Unsuitable{
		{"aes", "Byte-level data manipulation"},
		{"kmp", "Multi-level indirect pointer access"},
		{"merge-sort", "Fine-grain data-dependent loads/control"},
		{"radix-sort", "Concurrent reads/writes to same address"},
	}
}
