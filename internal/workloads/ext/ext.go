package ext

import (
	"fmt"

	"softbrain/internal/core"
	"softbrain/internal/workloads"
)

// All returns the implemented extension workloads — the codes the paper
// lists as fitting stream-dataflow but did not implement (md-gridding
// remains future work here too) — each on the broadly provisioned
// single unit.
func All() []workloads.Entry {
	e := func(name, patterns, datapath string, build func(core.Config, int) (*workloads.Instance, error)) workloads.Entry {
		return workloads.Entry{Name: name, Suite: "ext", Patterns: patterns, Datapath: datapath,
			Config: core.DefaultConfig, Build: build}
	}
	return []workloads.Entry{
		e("fft", "Log-Strided, Ping-Pong", "Complex Butterfly (4-mul rotate)", BuildFFT),
		e("nw", "Wavefront Linear, Shifted Reads", "Compare-Select + 3-Way Max", BuildNW),
		e("backprop", "Linear, Repeating, Two-Phase", "4-Way MAC + Derivative Scale", BuildBackprop),
		e("lut", "Indirect (Scratch Round-Trip), Linear", "Single Multiply", BuildLUT),
	}
}

// Find returns the named extension workload.
func Find(name string) (workloads.Entry, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return workloads.Entry{}, fmt.Errorf("ext: unknown workload %q", name)
}
