package core

import (
	"context"
	"fmt"
	"time"

	"softbrain/internal/faults"
	"softbrain/internal/mem"
	"softbrain/internal/obs"
	"softbrain/internal/sim"
)

// Cluster is several Softbrain units sharing one backing memory and one
// DRAM channel — the 8-unit configuration of the DianNao comparison
// (Section 7.1). Each unit has a private cache and memory port; units
// contend only for DRAM bandwidth, and run in lockstep: every cycle
// steps the units in unit order, which is also the order the shared
// DRAM channel grants their requests (see docs/SIMKERNEL.md).
type Cluster struct {
	Units []*Machine
	Mem   *mem.Memory

	// Lint, when set, vets what RunContext and RunPipeline are given
	// before any unit loads, and refuses it on a reported hazard. It
	// sees the whole phased program set (phases[k][u] = unit u's
	// program in phase k) because inter-unit hazards are a property of
	// the set, not of any one program. Install it with
	//
	//	cl.Lint = lint.ClusterHook(cfg, opts)
	//
	// (core cannot import the linter: lint analyzes core.Program).
	Lint func(phases [][]*Program) error

	cfg       Config
	haveCfg   bool
	unitStats []*Stats

	// Cluster-level heartbeat (see Machine.SetHeartbeat), reporting
	// across the units; the units' own heartbeats stay silent.
	hb heartbeat
}

// EnableMetrics attaches one registry per unit (unit index = registry
// unit). Call before Run; MetricsDump merges the units afterwards.
func (c *Cluster) EnableMetrics(opts obs.Options) {
	for i, u := range c.Units {
		u.EnableMetrics(obs.New(i, opts))
	}
}

// MetricsDump merges the per-unit registries, in unit order, into one
// dump with a cluster-wide total. Valid after a completed Run.
func (c *Cluster) MetricsDump() obs.Dump {
	units := make([]obs.UnitDump, 0, len(c.Units))
	for _, u := range c.Units {
		units = append(units, u.reg.Dump())
	}
	return obs.Merge(units)
}

// SchedStats sums the wake-set scheduler counters across the units
// (see Machine.SchedStats). Valid after a completed Run.
func (c *Cluster) SchedStats() sim.SchedStats {
	var total sim.SchedStats
	for _, u := range c.Units {
		total.Add(u.SchedStats())
	}
	return total
}

// SchedTickBy sums the executed tick counts per component name across
// the units, the per-component view behind SchedStats().CompTicks.
func (c *Cluster) SchedTickBy() map[string]uint64 {
	total := map[string]uint64{}
	for _, u := range c.Units {
		for name, n := range u.SchedTickBy() {
			total[name] += n
		}
	}
	return total
}

// SetHeartbeat installs a progress callback on the cluster's run loop,
// reporting aggregate progress across the units.
func (c *Cluster) SetHeartbeat(every time.Duration, fn func(ProgressReport)) {
	c.hb.every, c.hb.fn = every, fn
}

// Progress is the point-in-time aggregate report at cycle now — what a
// heartbeat would deliver — exported so callers can snapshot final run
// telemetry (retired bytes, stall mix) after a completed Run.
func (c *Cluster) Progress(now uint64) ProgressReport { return report(c.Units, now) }

// NewCluster builds n identical units over a shared backing store.
func NewCluster(cfg Config, n int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: cluster of %d units", n)
	}
	backing := mem.NewMemory()
	dram := mem.NewDRAM(cfg.Mem.MissInterval)
	c := &Cluster{Mem: backing, cfg: cfg, haveCfg: true}
	for i := 0; i < n; i++ {
		sys, err := mem.NewSystemShared(cfg.Mem, backing, dram)
		if err != nil {
			return nil, err
		}
		u, err := NewMachineShared(cfg, sys)
		if err != nil {
			return nil, err
		}
		c.Units = append(c.Units, u)
	}
	return c, nil
}

// validateUnits checks that every unit runs the same configuration —
// the cluster-wide controls (watchdog, skip-ahead, fault profile) are
// taken from it, so a mismatched unit would silently run under another
// unit's policy. A cluster assembled literally (not via NewCluster)
// adopts the uniform config it finds.
func (c *Cluster) validateUnits() error {
	if len(c.Units) == 0 {
		return fmt.Errorf("core: cluster has no units")
	}
	if !c.haveCfg {
		c.cfg, c.haveCfg = c.Units[0].cfg, true
	}
	for i, u := range c.Units {
		if u.cfg != c.cfg {
			return fmt.Errorf("core: cluster unit %d config differs from the cluster's; all units must share one Config", i)
		}
	}
	return nil
}

// FaultStats sums the injected-fault counts across all units; zero when
// faults are disabled.
func (c *Cluster) FaultStats() faults.Stats {
	var total faults.Stats
	for _, u := range c.Units {
		s := u.FaultStats()
		total.MemDelays += s.MemDelays
		total.Stalls += s.Stalls
		total.StallCycles += s.StallCycles
		total.Throttles += s.Throttles
		total.BitFlips += s.BitFlips
	}
	return total
}

// UnitStats returns the per-unit statistics of the last successful Run,
// in unit order.
func (c *Cluster) UnitStats() []*Stats { return c.unitStats }

// Run executes one program per unit in lockstep and returns aggregated
// statistics (Cycles is the wall-clock of the slowest unit). Like
// Machine.Run, it never lets an invariant panic escape: the recovered
// MachineError names the unit whose Step failed.
func (c *Cluster) Run(progs []*Program) (*Stats, error) {
	return c.RunContext(context.Background(), progs)
}

// RunContext is Run bounded by a context: cancellation or deadline
// expiry mid-run stops the run loop within one heartbeat stride and
// returns a *CanceledError wrapping the context cause. See
// Machine.RunContext. With a Lint hook installed the program set is
// vetted first: per-unit hazards and inter-unit races (overlapping
// DRAM footprints across units, unordered shared-region access) are
// refused before any unit loads.
func (c *Cluster) RunContext(ctx context.Context, progs []*Program) (*Stats, error) {
	if err := c.vet([][]*Program{progs}); err != nil {
		return nil, err
	}
	return c.run(ctx, progs)
}

// run loads one program per unit and runs them to completion.
func (c *Cluster) run(ctx context.Context, progs []*Program) (*Stats, error) {
	if err := c.validateUnits(); err != nil {
		return nil, err
	}
	if len(progs) != len(c.Units) {
		return nil, fmt.Errorf("core: %d programs for %d units", len(progs), len(c.Units))
	}
	for i, u := range c.Units {
		if err := u.Load(progs[i]); err != nil {
			return nil, err
		}
	}
	units, err := runUnits(ctx, c.Units, &c.hb)
	if err != nil {
		return nil, err
	}
	total := &Stats{}
	for _, s := range units {
		total.Add(s)
	}
	c.unitStats = units
	return total, nil
}

// vet runs a phased program set through the Lint hook, if any.
func (c *Cluster) vet(phases [][]*Program) error {
	if c.Lint == nil {
		return nil
	}
	if err := c.Lint(phases); err != nil {
		return fmt.Errorf("core: refusing to run: %w", err)
	}
	return nil
}

// RunPipeline executes a phased program set: phases[k] holds one
// program per unit, phase k+1 starts only after every unit of phase k
// fully completed, so the phase boundary is a cluster-wide barrier —
// the ordering primitive the cluster linter's shared-region rules
// verify against. A Lint hook vets the whole phase sequence once,
// before the first phase loads. Statistics are aggregated across
// phases with Cycles summed: phases are sequential, so the pipeline's
// wall-clock is the sum of the phase wall-clocks. UnitStats aggregates
// the same way per unit; a metrics dump describes the last phase.
// Cancellation between or within phases returns a *CanceledError and
// runs no further phase.
func (c *Cluster) RunPipeline(ctx context.Context, phases [][]*Program) (*Stats, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("core: pipeline has no phases")
	}
	if err := c.vet(phases); err != nil {
		return nil, err
	}
	total := &Stats{}
	var cycles uint64
	var unitTotals []*Stats
	for pi, progs := range phases {
		s, err := c.run(ctx, progs)
		if err != nil {
			return nil, fmt.Errorf("core: pipeline phase %d: %w", pi, err)
		}
		cycles += s.Cycles
		total.Add(s)
		if unitTotals == nil {
			unitTotals = make([]*Stats, len(c.unitStats))
			for i := range unitTotals {
				unitTotals[i] = &Stats{}
			}
		}
		for i, us := range c.unitStats {
			sum := unitTotals[i].Cycles + us.Cycles
			unitTotals[i].Add(us)
			unitTotals[i].Cycles = sum // Add takes the max; phases serialize
		}
	}
	total.Cycles = cycles
	c.unitStats = unitTotals
	return total, nil
}
