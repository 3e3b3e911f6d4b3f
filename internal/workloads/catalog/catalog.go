// Package catalog is the one list of built-in workloads: the MachSuite
// codes and the extension codes on one broadly provisioned unit
// (Section 7.2), and the DNN layers on the 8-unit DNN-provisioned
// cluster (Section 7.1). Every tool that names a workload resolves it
// here, so the mapping from a name to its machine is decided once.
package catalog

import (
	"fmt"

	"softbrain/internal/core"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/ext"
	"softbrain/internal/workloads/machsuite"
)

// All returns every built-in workload: MachSuite, then the extension
// codes, then the DNN layers, each suite in its own order. DNN layers
// have a fixed shape and ignore the scale.
func All() []workloads.Entry {
	out := append(machsuite.All(), ext.All()...)
	for _, l := range dnn.Layers() {
		out = append(out, workloads.Entry{
			Name: l.Name, Suite: "dnn", Config: dnn.Config,
			Build: func(cfg core.Config, _ int) (*workloads.Instance, error) { return l.Build(cfg, dnn.Units) },
		})
	}
	return out
}

// Find returns the named workload.
func Find(name string) (workloads.Entry, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return workloads.Entry{}, fmt.Errorf("unknown workload %q", name)
}

// Build sizes the named workload on its own machine and returns the
// instance with that machine's configuration.
func Build(name string, scale int) (*workloads.Instance, core.Config, error) {
	e, err := Find(name)
	if err != nil {
		return nil, core.Config{}, err
	}
	cfg := e.Config()
	inst, err := e.Build(cfg, scale)
	return inst, cfg, err
}
