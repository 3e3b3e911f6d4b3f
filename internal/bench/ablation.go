package bench

import (
	"context"
	"errors"
	"fmt"

	"softbrain/internal/cgra"
	"softbrain/internal/core"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/catalog"
)

// AblationRow reports one workload's cycle counts with individual
// microarchitectural features disabled — the quantitative backing for
// the design decisions DESIGN.md §3 calls out.
type AblationRow struct {
	Workload string

	Baseline      uint64 // all features on
	NoAllInFlight uint64 // §4.2 all-requests-in-flight disabled
	InOrderIssue  uint64 // dispatch window disabled (head-of-queue only)
	NoBalanceUnit uint64 // §4.5 balance arbitration disabled
	SmallWindow   uint64 // command queue depth 2
	ShallowPorts  uint64 // vector-port depth halved

	// Cold-run columns: all-requests-in-flight earns its keep when
	// misses put hundreds of cycles between a stream's last request and
	// its completion.
	ColdBaseline      uint64
	ColdNoAllInFlight uint64
}

// ablationWorkloads are the kernels most sensitive to the studied
// features: fine-grained per-row streams (spmv), recurrence pipelines
// (stencil2d, gemm) and indirect traffic (md-knn).
var ablationWorkloads = []string{"spmv-crs", "stencil2d", "gemm", "md-knn"}

// Ablations measures each feature's contribution on the sensitive
// MachSuite kernels. Rows report warm-run cycles; higher than Baseline
// means the feature was load-bearing. The context bounds the whole
// study (sdbench -timeout).
func Ablations(ctx context.Context) ([]AblationRow, error) {
	var rows []AblationRow
	for _, name := range ablationWorkloads {
		e, err := catalog.Find(name)
		if err != nil {
			return nil, err
		}
		row := AblationRow{Workload: name}
		measureMode := func(mutate func(*core.Config), warm bool) (uint64, error) {
			cfg := e.Config()
			if mutate != nil {
				mutate(&cfg)
			}
			inst, err := e.Build(cfg, 2)
			if err != nil {
				return 0, fmt.Errorf("bench: ablation %s: %w", name, err)
			}
			stats, err := runAblation(ctx, inst, cfg, warm)
			if err != nil {
				return 0, fmt.Errorf("bench: ablation %s: %w", name, err)
			}
			return stats.Cycles, nil
		}
		measure := func(mutate func(*core.Config)) (uint64, error) {
			return measureMode(mutate, true)
		}
		if row.Baseline, err = measure(nil); err != nil {
			return nil, err
		}
		if row.NoAllInFlight, err = measure(func(c *core.Config) { c.NoAllInFlight = true }); err != nil {
			return nil, err
		}
		if row.InOrderIssue, err = measure(func(c *core.Config) { c.InOrderIssue = true }); err != nil {
			return nil, err
		}
		if row.NoBalanceUnit, err = measure(func(c *core.Config) { c.NoBalanceUnit = true }); err != nil {
			return nil, err
		}
		if row.SmallWindow, err = measure(func(c *core.Config) { c.CmdQueueDepth = 2 }); err != nil {
			return nil, err
		}
		if row.ShallowPorts, err = measure(func(c *core.Config) {
			c.Fabric = halfDepthFabric(c.Fabric)
		}); err != nil {
			return nil, err
		}
		if row.ColdBaseline, err = measureMode(nil, false); err != nil {
			return nil, err
		}
		if row.ColdNoAllInFlight, err = measureMode(func(c *core.Config) { c.NoAllInFlight = true }, false); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// halfDepthFabric clones the fabric with vector-port FIFO depths halved
// (never below the port width).
func halfDepthFabric(f *cgra.Fabric) *cgra.Fabric {
	g := *f
	g.InPorts = append([]cgra.PortSpec(nil), f.InPorts...)
	g.OutPorts = append([]cgra.PortSpec(nil), f.OutPorts...)
	for i := range g.InPorts {
		if d := g.InPorts[i].Depth / 2; d >= g.InPorts[i].Width {
			g.InPorts[i].Depth = d
		}
	}
	for i := range g.OutPorts {
		if d := g.OutPorts[i].Depth / 2; d >= g.OutPorts[i].Width {
			g.OutPorts[i].Depth = d
		}
	}
	return &g
}

// runAblation runs warm and tolerates deadlocks (an ablated machine may
// legitimately deadlock; report max cycles instead of failing).
func runAblation(ctx context.Context, inst *workloads.Instance, cfg core.Config, warm bool) (*core.Stats, error) {
	_, stats, err := inst.Run(ctx, cfg, workloads.RunOpts{Warm: warm})
	if err != nil {
		var dl *core.DeadlockError
		if errors.As(err, &dl) {
			return &core.Stats{Cycles: ^uint64(0)}, nil
		}
		return nil, err
	}
	return stats, nil
}
