package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"softbrain/internal/core"
	"softbrain/internal/obs"
	"softbrain/internal/sim"
	"softbrain/internal/workloads"
)

// simOp is one simulation of a program: each call into core timed.
type simOp struct {
	newCluster, init, run, check time.Duration
	dump                         time.Duration // MetricsDump plus JSON encoding (metrics runs only)
	stats                        *core.Stats
	sched                        sim.SchedStats
}

// runOnce performs one operation: core.NewCluster, Instance.Init,
// Cluster.RunContext and Instance.Check, in that order, on the repo's
// default scheduler settings. With metrics set the observability layer
// is attached before the run and dumped after it. parent is the span
// the calls are recorded under (tracer nil: untraced).
func runOnce(ctx context.Context, tr *tracer, parent int, p *program, inst *workloads.Instance, metrics bool) (simOp, error) {
	var op simOp
	sp := tr.child("core.new_cluster", parent)
	t := time.Now()
	cl, err := core.NewCluster(p.cfg, len(inst.Progs))
	op.newCluster = time.Since(t)
	tr.end(sp)
	if err != nil {
		return op, err
	}
	if metrics {
		cl.EnableMetrics(obs.Options{})
	}

	if inst.Init == nil || inst.Check == nil {
		return op, fmt.Errorf("%s: no input image or golden model", p.key())
	}
	sp = tr.child("core.init", parent)
	t = time.Now()
	inst.Init(cl.Mem)
	op.init = time.Since(t)
	tr.end(sp)

	runName := "core.run"
	if metrics {
		runName = "obs.run"
	}
	sp = tr.child(runName, parent)
	t = time.Now()
	stats, err := cl.RunContext(ctx, inst.Progs)
	op.run = time.Since(t)
	tr.end(sp)
	if err != nil {
		return op, fmt.Errorf("%s: run: %w", p.key(), err)
	}
	op.stats = stats
	op.sched = cl.SchedStats()

	sp = tr.child("core.check", parent)
	t = time.Now()
	err = inst.Check(cl.Mem)
	op.check = time.Since(t)
	tr.end(sp)
	if err != nil {
		return op, fmt.Errorf("%s: verify: %w", p.key(), err)
	}

	if metrics {
		sp = tr.child("obs.dump", parent)
		t = time.Now()
		dump := cl.MetricsDump()
		_, err := json.Marshal(dump)
		op.dump = time.Since(t)
		tr.end(sp)
		if err != nil {
			return op, fmt.Errorf("%s: encoding metrics: %w", p.key(), err)
		}
		if err := obs.CheckConservation(dump); err != nil {
			return op, fmt.Errorf("%s: %w", p.key(), err)
		}
	}
	return op, nil
}

// cycleGate is the correctness gate on simulated cycle counts: a
// program's count must equal its committed golden where one exists, and
// must be identical across every sample.
type cycleGate struct {
	seen map[string]uint64
}

func newCycleGate() *cycleGate { return &cycleGate{seen: map[string]uint64{}} }

func (g *cycleGate) check(key string, golden, cycles uint64) error {
	if golden != 0 && cycles != golden {
		return fmt.Errorf("%s: %d cycles, golden %d", key, cycles, golden)
	}
	if prev, ok := g.seen[key]; ok && prev != cycles {
		return fmt.Errorf("%s: %d cycles, earlier sample %d", key, cycles, prev)
	}
	g.seen[key] = cycles
	return nil
}
