// Package programs builds the example stream-dataflow programs as
// importable values, so the example binaries, the sdlint tool, and the
// regression tests all audit the same artifacts. Each builder returns
// an Example bundling the program with the machine configuration it
// targets, its memory-image initializer, a golden-model checker, and a
// reporter for the example binary's output.
package programs

import (
	"context"

	"softbrain"
)

// Example is one runnable example program.
type Example struct {
	Name string
	Cfg  softbrain.Config
	Prog *softbrain.Program

	// Init writes the input data into the memory image.
	Init func(m *softbrain.Memory)

	// Check compares the memory image against the host computation
	// after the run.
	Check func(m *softbrain.Memory) error

	// Report prints the example's human-readable summary.
	Report func(m *softbrain.Memory, stats *softbrain.Stats)
}

// Run executes the example on a fresh one-unit cluster: initialize,
// run, verify.
func (e Example) Run() (*softbrain.Memory, *softbrain.Stats, error) {
	cl, err := softbrain.NewCluster(e.Cfg, 1)
	if err != nil {
		return nil, nil, err
	}
	e.Init(cl.Mem)
	stats, err := cl.RunContext(context.Background(), []*softbrain.Program{e.Prog})
	if err != nil {
		return nil, nil, err
	}
	if err := e.Check(cl.Mem); err != nil {
		return nil, nil, err
	}
	return cl.Mem, stats, nil
}

// All returns every example, built fresh.
func All() ([]Example, error) {
	var out []Example
	for _, build := range []func() (Example, error){
		Quickstart, Stencil, SpMV, Classifier,
	} {
		e, err := build()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}
