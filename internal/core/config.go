// Package core assembles the Softbrain microarchitecture (Figure 7):
// control core, stream dispatcher, the three stream engines, vector
// ports, scratchpad, CGRA and memory interface, and runs stream-dataflow
// programs on it cycle by cycle. It is the primary deliverable of the
// reproduction: a functional, timing-accurate model of the paper's
// implementation.
package core

import (
	"fmt"

	"softbrain/internal/cgra"
	"softbrain/internal/faults"
	"softbrain/internal/mem"
)

// Config parameterizes one Softbrain unit.
type Config struct {
	Fabric *cgra.Fabric // CGRA geometry, FU mix, vector ports

	Mem          mem.SysConfig // memory-system timing
	ScratchBytes int           // programmable scratchpad capacity

	CmdQueueDepth int // stream-dispatcher command queue entries
	StreamTable   int // stream-table entries per engine direction
	PadBufEntries int // MSE-to-SSE write buffer entries

	// IssueCost is the control-core cycles consumed per instruction
	// word of a stream command (commands are 1-3 words).
	IssueCost int

	// WatchdogCycles ends a simulation that makes no progress for this
	// long, reporting a deadlock diagnosis. 0 uses the default. Most
	// deadlocks are caught far earlier by quiescence detection; the
	// watchdog is the backstop for live-locks and fault-perturbed runs.
	WatchdogCycles uint64

	// Faults, when non-nil and enabled, injects deterministic seeded
	// faults (memory delays, engine stalls, bus throttling, bit flips)
	// at the machine's timing boundaries. See internal/faults.
	Faults *faults.Config

	// Ablation switches, normally false. They disable, respectively:
	// the §4.5 balance arbitration unit, the §4.2 all-requests-in-flight
	// optimization, and the dispatch window (forcing strict head-of-queue
	// issue). See internal/bench's ablation study.
	NoBalanceUnit bool
	NoAllInFlight bool
	InOrderIssue  bool

	// Sched selects how the run loop schedules component ticks (see
	// internal/sim and docs/SIMKERNEL.md). Every mode simulates the
	// same cycles — this is a host-performance switch kept for the
	// equivalence tests and benchmarking, not a behavioral one. Fault
	// profiles with per-cycle draws force per-cycle stepping.
	Sched SchedMode
}

// SchedMode is the run loop's scheduling mode (Config.Sched).
type SchedMode uint8

const (
	SchedWakeSet  SchedMode = iota // the default: the wake-set scheduler with frozen jumps (Machine.Step, sim.Kernel.Due)
	SchedPerCycle                  // every component ticks every cycle: the reference the default reproduces
)

// DefaultConfig is the broadly provisioned Softbrain of Section 7.2.
func DefaultConfig() Config {
	return Config{
		Fabric:        cgra.BroadFabric(),
		Mem:           mem.DefaultSysConfig(),
		ScratchBytes:  4 << 10,
		CmdQueueDepth: 8,
		StreamTable:   8,
		PadBufEntries: 8,
		IssueCost:     1,
	}
}

// DNNConfig is the Softbrain unit provisioned for the DianNao
// comparison (Section 7.1): 16-bit 4-way subword FUs and sigmoid units.
func DNNConfig() Config {
	c := DefaultConfig()
	c.Fabric = cgra.DNNFabric()
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Fabric == nil {
		return fmt.Errorf("core: config has no fabric")
	}
	if err := c.Fabric.Validate(); err != nil {
		return err
	}
	if c.ScratchBytes <= 0 || c.CmdQueueDepth <= 0 || c.StreamTable <= 0 ||
		c.PadBufEntries <= 0 || c.IssueCost <= 0 {
		return fmt.Errorf("core: non-positive config parameter: %+v", c)
	}
	if c.WatchdogCycles != 0 {
		if floor := minWatchdog(c.IssueCost); c.WatchdogCycles < floor {
			return fmt.Errorf("core: WatchdogCycles %d below the minimum %d (the watchdog must outlast the quiescence grace period and the issue of one %d-word command at IssueCost %d)",
				c.WatchdogCycles, floor, maxCommandWords, c.IssueCost)
		}
	}
	if c.Sched > SchedPerCycle {
		return fmt.Errorf("core: unknown scheduler mode %d", c.Sched)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// maxCommandWords is the longest encodable stream command (1-3 words).
const maxCommandWords = 3

// minWatchdog is the smallest WatchdogCycles that cannot fire spuriously:
// it must exceed the quiescence grace period (so structured diagnosis
// gets a chance first) and the core-busy window of the most expensive
// single command, during which zero progress is normal.
func minWatchdog(issueCost int) uint64 {
	floor := uint64(2 * quiesceGrace)
	if c := uint64(maxCommandWords * issueCost); c > floor {
		floor = c
	}
	return floor
}
