// Package workloads defines the common shape of the benchmark
// workloads: a stream-dataflow program (or one per Softbrain unit), the
// memory image initializer, a golden-model checker, and the analytic
// profile the baseline models consume. Subpackages dnn and machsuite
// hold the actual workloads of Sections 7.1 and 7.2.
package workloads

import (
	"context"
	"fmt"

	"softbrain/internal/baseline"
	"softbrain/internal/baseline/asic"
	"softbrain/internal/core"
	"softbrain/internal/mem"
)

// Instance is one concrete, sized workload ready to run.
type Instance struct {
	Name string

	// Progs holds one program per Softbrain unit; single-unit workloads
	// have exactly one entry.
	Progs []*core.Program

	// Init writes the input data into the memory image.
	Init func(m *mem.Memory)

	// Check compares the memory image against the golden model after
	// the run.
	Check func(m *mem.Memory) error

	// Profile feeds the CPU/GPU/DianNao analytic models.
	Profile baseline.Profile

	// Kernel feeds the ASIC (Aladdin-like) model; nil for workloads
	// that are not part of the MachSuite comparison.
	Kernel *asic.Kernel

	// Table 4 characterization.
	Patterns string
	Datapath string
}

// Units is the number of Softbrain units the instance runs on.
func (i *Instance) Units() int { return len(i.Progs) }

// Entry is one built-in workload: its name, its suite ("machsuite",
// "ext" or "dnn"), its Table 4 characterization, the machine it runs
// on, and its builder. scale >= 1 multiplies the problem size (1 is a
// small test size); workloads of a fixed shape ignore it.
type Entry struct {
	Name     string
	Suite    string
	Patterns string
	Datapath string
	Config   func() core.Config
	Build    func(cfg core.Config, scale int) (*Instance, error)
}

// RunOpts selects how Instance.Run executes.
type RunOpts struct {
	// Warm runs the instance twice on the same cluster and reports the
	// second, cache-warm run — the standard steady-state measurement,
	// and the regime the paper's accelerator comparisons operate in.
	// Some programs update their inputs in place (fft, backprop), so
	// the inputs are written again before the second run; the cache
	// model holds only tags, so that run stays cache-warm.
	Warm bool

	// Prepare, when set, runs after the cluster is built and before the
	// memory image is initialized: the seam for attaching
	// instrumentation (metrics, tracing, heartbeats, lint hooks).
	Prepare func(*core.Cluster)
}

// MismatchError reports a completed run whose memory image failed the
// golden-model check. Err is the checker's error.
type MismatchError struct {
	Name string
	Err  error
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("workloads: verifying %s: %v", e.Name, e.Err)
}

func (e *MismatchError) Unwrap() error { return e.Err }

// Run executes the instance on a fresh cluster of Units() units with
// the given per-unit configuration, verifies the result, and returns
// the cluster with the reported run's statistics; the cluster's
// metrics dump and scheduler counters describe the same run.
// Cancellation or deadline expiry of ctx mid-run returns an error
// wrapping a *core.CanceledError (the cycle watchdog bounds simulated
// time; the context bounds host wall-clock time, across both runs when
// warm).
//
// The cluster is returned whenever it was built, failed runs included.
// A golden-model mismatch returns a *MismatchError together with the
// completed run's statistics, so a caller expecting corruption (a
// bit-flip fault profile) can still report the run.
func (i *Instance) Run(ctx context.Context, cfg core.Config, o RunOpts) (*core.Cluster, *core.Stats, error) {
	if len(i.Progs) == 0 {
		return nil, nil, fmt.Errorf("workloads: %s has no programs", i.Name)
	}
	cl, err := core.NewCluster(cfg, len(i.Progs))
	if err != nil {
		return nil, nil, err
	}
	if o.Prepare != nil {
		o.Prepare(cl)
	}
	if i.Init != nil {
		i.Init(cl.Mem)
	}
	stats, err := cl.RunContext(ctx, i.Progs)
	if err != nil {
		return cl, nil, fmt.Errorf("workloads: running %s: %w", i.Name, err)
	}
	if o.Warm {
		if i.Init != nil {
			i.Init(cl.Mem)
		}
		if stats, err = cl.RunContext(ctx, i.Progs); err != nil {
			return cl, nil, fmt.Errorf("workloads: warm-running %s: %w", i.Name, err)
		}
	}
	if i.Check != nil {
		if err := i.Check(cl.Mem); err != nil {
			return cl, stats, &MismatchError{Name: i.Name, Err: err}
		}
	}
	return cl, stats, nil
}

// Layout is a bump allocator for laying out workload data in the memory
// image below the configuration space. Overflow is a sticky error, so a
// builder can chain Alloc calls and check Err once at the end.
type Layout struct {
	next uint64
	err  error
}

// NewLayout starts allocating at a small non-zero base.
func NewLayout() *Layout { return &Layout{next: 0x1_0000} }

// Alloc reserves n bytes, 64-byte aligned, and returns the base address.
// On overflow into the configuration space it records the error
// (observable via Err) and keeps allocating, so addresses stay distinct.
func (l *Layout) Alloc(n uint64) uint64 {
	addr := l.next
	l.next += (n + 63) &^ 63
	if l.err == nil && l.next >= core.ConfigSpace {
		l.err = fmt.Errorf("workloads: memory image (%#x bytes) overflows into configuration space at %#x",
			l.next, core.ConfigSpace)
	}
	return addr
}

// Err reports whether any allocation overflowed the data space.
func (l *Layout) Err() error { return l.err }
