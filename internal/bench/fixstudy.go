package bench

import (
	"context"
	"fmt"

	"softbrain/internal/core"
	"softbrain/internal/fix"
	"softbrain/internal/isa"
	"softbrain/internal/lint"
	"softbrain/internal/obs"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/catalog"
)

// FixRow reports one workload's barrier count and warm-run cycles in
// three forms: as shipped, fully serialized (an SD_Barrier_All after
// every command — the conservative program a cautious programmer or a
// naive compiler writes), and after the fix pass has eliminated the
// serialization it can prove redundant. Fixed should recover shipped.
//
// The placement fields extend the study to where the surviving barriers
// sit: the fixed programs normalized to the latest-legal placement (the
// no-profile baseline) versus the profile-guided cost-aware placement
// of fix.HoistBarriers, with the barrier-drain stall cycles of each —
// the component of the total the chooser actually optimizes.
type FixRow struct {
	Workload                         string
	Shipped, Serialized, Fixed       int    // barrier counts
	ShippedCy, SerializedCy, FixedCy uint64 // cycles

	Hoists                    int    // barriers the cost-aware chooser moved
	LatestCy, HoistedCy       uint64 // cycles at latest-legal vs cost-aware placement
	LatestDrain, HoistedDrain uint64 // barrier-drain stall cycles at each placement
}

// fixStudyWorkloads are the kernels of the study: stream-heavy kernels
// whose traces serialize badly, plus the indirect workloads where the
// fix pass must keep the load-bearing barriers. The last, lut, is the
// scratch round-trip, bounded only by value tracking.
var fixStudyWorkloads = []string{
	"spmv-crs", "stencil2d", "gemm", "bfs", "spmv-ellpack", "md-knn", "stencil3d", "viterbi",
	"nw", "backprop", "fft", "lut",
}

// FixStudy measures the cost of over-serialization and how much of it
// the barrier-elimination pass recovers. The context bounds the whole
// study (sdbench -timeout).
func FixStudy(ctx context.Context) ([]FixRow, error) {
	var rows []FixRow
	for _, name := range fixStudyWorkloads {
		inst, cfg, err := catalog.Build(name, 1)
		if err != nil {
			return nil, fmt.Errorf("bench: fix study %s: %w", name, err)
		}

		serialized := make([]*core.Program, len(inst.Progs))
		fixed := make([]*core.Program, len(inst.Progs))
		row := FixRow{Workload: name}
		for i, p := range inst.Progs {
			serialized[i] = serialize(p)
			q, rep, err := fix.Fix(serialized[i], cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: fix study %s: %w", name, err)
			}
			fixed[i] = q
			row.Shipped += fix.CountBarriers(p)
			row.Serialized += rep.BarriersBefore
			row.Fixed += rep.BarriersAfter
		}
		for _, m := range []struct {
			progs []*core.Program
			out   *uint64
		}{
			{inst.Progs, &row.ShippedCy},
			{serialized, &row.SerializedCy},
			{fixed, &row.FixedCy},
		} {
			cy, err := runCycles(ctx, inst, cfg, m.progs)
			if err != nil {
				return nil, fmt.Errorf("bench: fix study %s: %w", name, err)
			}
			*m.out = cy
		}
		if err := placementStudy(ctx, inst, cfg, fixed, &row); err != nil {
			return nil, fmt.Errorf("bench: fix study %s: %w", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// placementStudy measures the placement half of the study on one
// workload: normalize the fixed programs to the latest-legal placement,
// profile that run for per-barrier drain cycles, then let the
// cost-aware chooser hoist barriers within their legal intervals with a
// full simulation as the cost oracle (so committed moves are strict
// improvements by construction). Every candidate run still verifies the
// workload's golden check.
func placementStudy(ctx context.Context, inst *workloads.Instance, cfg core.Config, fixed []*core.Program, row *FixRow) error {
	latest := make([]*core.Program, len(fixed))
	for i, p := range fixed {
		q, _, err := fix.PlaceLatest(p, cfg)
		if err != nil {
			return err
		}
		latest[i] = q
	}
	lStats, dump, err := runMetrics(ctx, inst, cfg, latest)
	if err != nil {
		return err
	}
	row.LatestCy, row.LatestDrain = lStats.Cycles, lStats.BarrierCycles

	hoisted := make([]*core.Program, len(latest))
	copy(hoisted, latest)
	for i := range latest {
		pr := fix.ProfileFromUnit(dump.Units[i])
		if pr == nil {
			continue
		}
		idx := i
		evaluate := func(cand *core.Program) (uint64, error) {
			trial := make([]*core.Program, len(hoisted))
			copy(trial, hoisted)
			trial[idx] = cand
			return runCycles(ctx, inst, cfg, trial)
		}
		q, moves, err := fix.HoistBarriers(latest[i], cfg, fix.HoistOpts{Profile: pr, Evaluate: evaluate})
		if err != nil {
			return err
		}
		// A hoisted placement must keep the strictest analysis verdict.
		fs, err := lint.CheckWith(q, cfg, lint.Opts{Exhaustive: true, StrictIndirect: true})
		if err != nil {
			return err
		}
		for _, f := range fs {
			if f.Sev == lint.SevError {
				return fmt.Errorf("hoisted %s: %v", q.Name, f)
			}
		}
		hoisted[i] = q
		row.Hoists += len(moves)
	}
	hStats, _, err := runMetrics(ctx, inst, cfg, hoisted)
	if err != nil {
		return err
	}
	row.HoistedCy, row.HoistedDrain = hStats.Cycles, hStats.BarrierCycles
	return nil
}

// serialize rebuilds p with an SD_Barrier_All after every non-barrier
// command.
func serialize(p *core.Program) *core.Program {
	q := core.NewProgram(p.Name)
	for addr, blob := range p.Configs {
		q.Configs[addr] = blob
	}
	for _, op := range p.Trace {
		q.Trace = append(q.Trace, op)
		if op.Cmd != nil && !isa.IsBarrier(op.Cmd) {
			q.Trace = append(q.Trace, core.TraceOp{Cmd: isa.BarrierAll{}})
		}
	}
	return q
}

// runCycles runs the instance's data against the given program set on a
// fresh cluster, verifies the golden check still passes, and reports
// the run's cycles. Runs are cold: some study workloads (backprop)
// update their inputs in place, so a warm re-run would not verify.
func runCycles(ctx context.Context, inst *workloads.Instance, cfg core.Config, progs []*core.Program) (uint64, error) {
	_, stats, err := withProgs(inst, progs).Run(ctx, cfg, workloads.RunOpts{})
	if err != nil {
		return 0, err
	}
	return stats.Cycles, nil
}

// runMetrics is runCycles with per-unit metrics enabled, returning the
// full run stats and the merged dump (the barrier_drains sections feed
// the cost-aware chooser).
func runMetrics(ctx context.Context, inst *workloads.Instance, cfg core.Config, progs []*core.Program) (*core.Stats, obs.Dump, error) {
	cl, stats, err := withProgs(inst, progs).Run(ctx, cfg, workloads.RunOpts{
		Prepare: func(cl *core.Cluster) { cl.EnableMetrics(obs.Options{}) },
	})
	if err != nil {
		return nil, obs.Dump{}, err
	}
	return stats, cl.MetricsDump(), nil
}

// withProgs is a copy of inst that runs progs instead of its own
// program set.
func withProgs(inst *workloads.Instance, progs []*core.Program) *workloads.Instance {
	v := *inst
	v.Progs = progs
	return &v
}
