package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"softbrain/examples/programs"
	"softbrain/internal/core"
	"softbrain/internal/wire"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/ext"
	"softbrain/internal/workloads/machsuite"
)

// program is one built-in workload at a fixed problem scale, configured
// exactly as the service's named-workload path configures it: DNN
// layers on the 8-unit DNN cluster, MachSuite and extension codes on one
// broadly provisioned unit.
type program struct {
	name   string
	scale  int
	cfg    core.Config
	served bool   // submittable to the service as a named workload
	golden uint64 // committed cycle count, 0 when the goldens do not name it
	build  func() (*workloads.Instance, error)
}

// key identifies the program in reference-cycle maps and reports.
func (p *program) key() string { return fmt.Sprintf("%s@%d", p.name, p.scale) }

// named resolves a built-in workload by name.
func named(name string, scale int) (*program, error) {
	if l, err := dnn.Find(name); err == nil {
		cfg := dnn.Config()
		return &program{name: name, scale: scale, cfg: cfg, served: true,
			build: func() (*workloads.Instance, error) { return l.Build(cfg, dnn.Units) }}, nil
	}
	cfg := core.DefaultConfig()
	if e, err := machsuite.Find(name); err == nil {
		return &program{name: name, scale: scale, cfg: cfg, served: true,
			build: func() (*workloads.Instance, error) { return e.Build(cfg, scale) }}, nil
	}
	e, err := ext.Find(name)
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return &program{name: name, scale: scale, cfg: cfg, served: true,
		build: func() (*workloads.Instance, error) { return e.Build(cfg, scale) }}, nil
}

// gemmX4 is gemm replicated over a four-unit cluster sharing one image
// and one DRAM channel, built as the simulator's own host benchmark
// builds it (internal/bench/simbench.go). It is not a named workload of
// the service.
func gemmX4() (*program, error) {
	g, err := named("gemm", 3)
	if err != nil {
		return nil, err
	}
	return &program{name: "gemm-x4", scale: 3, cfg: g.cfg, build: func() (*workloads.Instance, error) {
		var first *workloads.Instance
		for k := 0; k < 4; k++ {
			inst, err := g.build()
			if err != nil {
				return nil, err
			}
			if first == nil {
				first = inst
			} else {
				first.Progs = append(first.Progs, inst.Progs...)
			}
		}
		first.Name = "gemm-x4"
		return first, nil
	}}, nil
}

// scaled is a (name, scale) pair in a workload table.
type scaled struct {
	name  string
	scale int
}

// resolve builds the programs of a table, in order.
func resolve(table []scaled) ([]*program, error) {
	var out []*program
	for _, s := range table {
		var p *program
		var err error
		if s.name == "gemm-x4" {
			p, err = gemmX4()
		} else {
			p, err = named(s.name, s.scale)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// The scales are those of scripts/bench_goldens.json, so every program
// below has a committed cycle count.
var (
	irregularTable = []scaled{{"bfs", 6}, {"spmv-crs", 4}, {"spmv-ellpack", 4}, {"md-knn", 4}, {"lut", 2}}
	clusterTable   = []scaled{{"class1p", 1}, {"class3p", 1}, {"gemm-x4", 3}}
)

// recordedMix is the service traffic the repository records in
// BENCH_serve.json, the mix of `sdserve -loadgen` and TestSoak: named
// workloads at the service's default scale 1, request n submitting
// recordedMix[n%8] (so gemm is three times as popular as each other
// key), and every recordedStreamEvery-th request taken over SSE.
var (
	recordedMix         = []string{"gemm", "fft", "spmv-crs", "stencil2d", "gemm", "lut", "bfs", "gemm"}
	recordedStreamEvery = 4
)

// recordedPrograms resolves recordedMix in order, repeats sharing one
// program.
func recordedPrograms() ([]*program, error) {
	byName := map[string]*program{}
	var out []*program
	for _, name := range recordedMix {
		p, ok := byName[name]
		if !ok {
			var err error
			if p, err = named(name, 1); err != nil {
				return nil, err
			}
			byName[name] = p
		}
		out = append(out, p)
	}
	return out, nil
}

// loadGoldens reads the committed cycle counts and attaches them to the
// programs whose name they list. The counts are at the scales of the
// simulation workloads' tables; the service mix runs scale 1 and takes
// none.
func loadGoldens(path string, progs []*program) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading cycle goldens: %w", err)
	}
	var want map[string]uint64
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	for _, p := range progs {
		p.golden = want[p.name]
	}
	return nil
}

// rawProg is an example program submitted to the service in wire form,
// the service's raw-program path.
type rawProg struct {
	name   string
	preset string       // wire configuration preset
	wp     wire.Program // wire form, from wire.FromProgram
	cfg    core.Config  // what the preset builds
}

// rawPrograms converts the example programs (examples/programs) to their
// wire form.
func rawPrograms() ([]*rawProg, error) {
	exs, err := programs.All()
	if err != nil {
		return nil, err
	}
	var out []*rawProg
	for _, e := range exs {
		var preset string
		switch {
		case reflect.DeepEqual(e.Cfg, core.DefaultConfig()):
		case reflect.DeepEqual(e.Cfg, core.DNNConfig()):
			preset = "dnn"
		default:
			return nil, fmt.Errorf("example %s: configuration matches no wire preset", e.Name)
		}
		wp, err := wire.FromProgram(e.Prog)
		if err != nil {
			return nil, fmt.Errorf("encoding example %s: %w", e.Name, err)
		}
		cfg, err := wire.Config{Preset: preset}.Build()
		if err != nil {
			return nil, err
		}
		out = append(out, &rawProg{name: e.Name, preset: preset, wp: wp, cfg: cfg})
	}
	return out, nil
}
