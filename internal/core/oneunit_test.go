// Machine/cluster equivalence: a Machine is a one-unit Cluster. Every
// single-unit workload and example runs through Machine.RunContext and
// a one-unit Cluster.RunContext, plain and with metrics attached, and
// the two must agree on statistics, memory image, scheduler counters
// and obs dump. A hung program and a pre-canceled context must fail
// with the same typed error at the same cycle.
package core_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"softbrain/examples/programs"
	"softbrain/internal/core"
	"softbrain/internal/isa"
	"softbrain/internal/mem"
	"softbrain/internal/obs"
	"softbrain/internal/progen"
	"softbrain/internal/sim"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/ext"
	"softbrain/internal/workloads/machsuite"
)

// oneUnitCase is one program to run both ways.
type oneUnitCase struct {
	name string
	cfg  core.Config
	prog *core.Program
	init func(*mem.Memory)
}

// oneUnitResult is everything the comparison looks at.
type oneUnitResult struct {
	stats *core.Stats
	mem   *mem.Memory
	sched sim.SchedStats
	dump  []byte // marshaled obs dump; nil when metrics are off or the run failed
	err   error
}

// runOneUnit runs c on a fresh Machine (asCluster false) or a fresh
// one-unit Cluster (asCluster true).
func runOneUnit(t *testing.T, ctx context.Context, c oneUnitCase, asCluster, metrics bool) oneUnitResult {
	t.Helper()
	var r oneUnitResult
	var dump func() obs.Dump
	if asCluster {
		cl, err := core.NewCluster(c.cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if metrics {
			cl.EnableMetrics(obs.Options{})
		}
		if c.init != nil {
			c.init(cl.Mem)
		}
		r.stats, r.err = cl.RunContext(ctx, []*core.Program{c.prog})
		r.mem, r.sched, dump = cl.Mem, cl.SchedStats(), cl.MetricsDump
	} else {
		m, err := core.NewMachine(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if metrics {
			m.EnableMetrics(obs.New(0, obs.Options{}))
		}
		if c.init != nil {
			c.init(m.Sys.Mem)
		}
		r.stats, r.err = m.RunContext(ctx, c.prog)
		r.mem, r.sched, dump = m.Sys.Mem, m.SchedStats(), m.MetricsDump
	}
	if metrics && r.err == nil {
		data, err := dump().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		r.dump = data
	}
	return r
}

// compareOneUnit runs c both ways, reports every difference, and
// returns the machine's result.
func compareOneUnit(t *testing.T, ctx context.Context, c oneUnitCase, metrics bool) oneUnitResult {
	t.Helper()
	m := runOneUnit(t, ctx, c, false, metrics)
	cl := runOneUnit(t, ctx, c, true, metrics)
	if !reflect.DeepEqual(m.err, cl.err) {
		t.Errorf("%s (metrics=%v): errors differ:\n  machine: %v\n  cluster: %v", c.name, metrics, m.err, cl.err)
	}
	if !reflect.DeepEqual(m.stats, cl.stats) {
		t.Errorf("%s (metrics=%v): stats differ:\n  machine: %+v\n  cluster: %+v", c.name, metrics, m.stats, cl.stats)
	}
	if addr, diff := cl.mem.FirstDiff(m.mem); diff {
		t.Errorf("%s (metrics=%v): memory differs at %#x", c.name, metrics, addr)
	}
	if !reflect.DeepEqual(m.sched, cl.sched) {
		t.Errorf("%s (metrics=%v): scheduler counters differ:\n  machine: %+v\n  cluster: %+v", c.name, metrics, m.sched, cl.sched)
	}
	if !bytes.Equal(m.dump, cl.dump) {
		t.Errorf("%s: metrics dump differs:\nmachine:\n%s\ncluster:\n%s", c.name, m.dump, cl.dump)
	}
	return m
}

func TestMachineMatchesOneUnitCluster(t *testing.T) {
	cfg := core.DefaultConfig()
	var cases []oneUnitCase
	add := func(name string, inst *workloads.Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if inst.Units() == 1 {
			cases = append(cases, oneUnitCase{name, cfg, inst.Progs[0], inst.Init})
		}
	}
	for _, e := range machsuite.All() {
		inst, err := e.Build(cfg, 2)
		add(e.Name, inst, err)
	}
	for _, e := range ext.All() {
		inst, err := e.Build(cfg, 2)
		add(e.Name, inst, err)
	}
	exs, err := programs.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exs {
		cases = append(cases, oneUnitCase{e.Name, e.Cfg, e.Prog, e.Init})
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, metrics := range []bool{false, true} {
				if r := compareOneUnit(t, context.Background(), c, metrics); r.err != nil {
					t.Fatalf("metrics=%v: %v", metrics, r.err)
				}
			}
		})
	}

	// The unequal-counts hang from the diagnosis corpus: B receives one
	// instance to A's two, so the dataflow starves.
	t.Run("hang", func(t *testing.T) {
		p, ports, err := progen.Addpair(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.Emit(isa.MemPort{Src: isa.Linear(0x1000, 16), Dst: ports.A})
		p.Emit(isa.MemPort{Src: isa.Linear(0x2000, 8), Dst: ports.B})
		p.Emit(isa.CleanPort{Src: ports.C, Elem: isa.Elem64, Count: 2})
		r := compareOneUnit(t, context.Background(), oneUnitCase{"hang", cfg, p, nil}, false)
		var de *core.DeadlockError
		if !errors.As(r.err, &de) || de.Class != core.HangPortUndersupply {
			t.Fatalf("machine run = %v, want a port-undersupply DeadlockError", r.err)
		}
	})

	t.Run("pre-canceled", func(t *testing.T) {
		inst, err := machsuite.All()[0].Build(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		r := compareOneUnit(t, ctx, oneUnitCase{"pre-canceled", cfg, inst.Progs[0], inst.Init}, false)
		var ce *core.CanceledError
		if !errors.As(r.err, &ce) || ce.Cycle != 0 {
			t.Fatalf("machine run = %v, want a CanceledError at cycle 0", r.err)
		}
	})
}
