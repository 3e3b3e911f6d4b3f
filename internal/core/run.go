package core

import (
	"context"
	"time"
)

const defaultWatchdog = 50_000

// runUnits is the simulator's one run loop. It steps the loaded units
// in lockstep, in unit order, until every unit is done, and returns
// each unit's statistics with Cycles set to the cycle the last unit
// finished. Units share the backing memory and the DRAM channel, so
// unit order within a cycle is the DRAM grant order. A lone unit runs
// through here as a one-unit cluster.
//
// Invariant panics from any component are recovered into a
// MachineError naming the unit — the execution contract is that a run
// returns, it never takes the host process down. Step errors name
// their unit the same way.
func runUnits(ctx context.Context, units []*Machine, hb *heartbeat) (stats []*Stats, err error) {
	hb.last = time.Time{} // each run's first stride check re-arms the heartbeat
	anyFaults := false
	for _, u := range units {
		anyFaults = anyFaults || u.faults != nil
	}
	// Clusters reject units whose configs differ, so unit 0 speaks for
	// all of them.
	watchdog := units[0].cfg.WatchdogCycles
	if watchdog == 0 {
		watchdog = defaultWatchdog
	}
	var now uint64
	cur := 0 // the unit being stepped
	defer func() {
		if r := recover(); r != nil {
			me := units[cur].recoverPanic(r, now)
			me.Unit = cur
			stats, err = nil, me
		}
	}()
	if ce := canceled(ctx, now); ce != nil {
		return nil, ce
	}
	// Per-unit frozen jumps: wake[i] is the next cycle unit i steps at.
	// While it lies ahead the unit is frozen — the loop skips its Step
	// and wake probe — and Step replays the window when the unit
	// resumes. lastChange is the last cycle a tick of any unit made
	// progress (Machine.progressAt). A frozen unit ticks nothing, so the
	// hang checks below measure idleness from the cycle a per-cycle run
	// would.
	wake := make([]uint64, len(units))
	var lastChange uint64
	nextCheck := uint64(heartbeatStride) // the cycle of the next cancel check and heartbeat
	diagnosed := false
	for running(units) {
		for i, u := range units {
			if wake[i] <= now && !u.Done() {
				cur = i
				if err := u.Step(now); err != nil {
					return nil, atUnit(err, i)
				}
				if u.progressAt > lastChange {
					lastChange, diagnosed = u.progressAt, false
				}
			}
		}
		if now >= nextCheck {
			nextCheck = now - now%heartbeatStride + heartbeatStride
			if ce := canceled(ctx, now); ce != nil {
				return nil, ce
			}
			hb.beat(units, now)
		}
		stillRunning := running(units) // a Step may have just finished its unit
		if stillRunning {
			idle := now - lastChange
			// Quiescence: no progress for the grace period and no timed
			// event pending in any running unit — provably stuck, so
			// diagnose now rather than burning the full watchdog budget.
			// A frozen unit has a timed event pending, so it is never
			// quiescent and this check never needs its window replayed.
			if idle >= quiesceGrace && !diagnosed && allQuiescent(units, now) {
				de := diagnoseUnits(units, now)
				if de.Class != HangUnknown || !anyFaults {
					return nil, de
				}
				// Unknown cause under fault injection: be conservative
				// and keep running until the watchdog.
				diagnosed = true
			}
			if idle > watchdog {
				de := diagnoseUnits(units, now)
				if de.Class == HangUnknown {
					de.Class = HangWatchdog
					de.Detail = "no progress within the watchdog window; no structural cause identified"
				}
				return nil, de
			}
		}
		next := now + 1
		if stillRunning {
			// Probe each unit stepped this cycle once (sim.Kernel.Due) and
			// let the answer pick its next move. Any due component steps
			// the next cycle. None due, with a timed wake ahead, freezes
			// the unit: the loop skips it until then, capped at the cycle
			// the watchdog would fire, so a hung run diagnoses at exactly
			// the cycle the unskipped run would. Peers cannot thaw it
			// early: a unit's wake hints and stall causes read only its
			// own state (cache, MSHRs, accept port, ports, engines), only
			// its own components raise the signals it watches, and the
			// backing memory and DRAM token bucket it shares are reached
			// only through its own ticks. None due and no timed wake is an
			// Idle (hung) unit: it neither freezes nor holds back the jump
			// below. A unit with wake scheduling disabled steps every
			// cycle.
			deadline := lastChange + watchdog + 1
			target := ^uint64(0) // the earliest wake of a unit that is not idle
			for i, u := range units {
				if wake[i] <= now { // stepped this cycle, or done
					if u.Done() {
						continue
					}
					wake[i] = next
					if !u.noSkip {
						if due, l := u.kern.Due(next); !due {
							if l == ^uint64(0) {
								continue
							}
							wake[i] = min(l, deadline)
						}
					}
				}
				target = min(target, wake[i])
			}
			if target > next && target != ^uint64(0) {
				// Every running unit is frozen or idle: jump to the
				// earliest wake. Skipped spans contain no quiescent
				// cycle (a timed event is pending throughout), so no
				// quiescence check is bypassed.
				next = target
			}
		}
		now = next
	}
	stats = make([]*Stats, len(units))
	for i, u := range units {
		stats[i] = u.collect(now)
	}
	return stats, nil
}

// running reports whether any unit has work left.
func running(units []*Machine) bool {
	for _, u := range units {
		if !u.Done() {
			return true
		}
	}
	return false
}

// allQuiescent reports whether every running unit is quiescent.
func allQuiescent(units []*Machine, now uint64) bool {
	for _, u := range units {
		if !u.Done() && !u.quiescent(now) {
			return false
		}
	}
	return true
}

// diagnoseUnits classifies a stuck run: the first running unit with a
// structural cause names the hang, the first running unit otherwise.
// At least one unit must be running.
func diagnoseUnits(units []*Machine, now uint64) *DeadlockError {
	var first *DeadlockError
	for i, u := range units {
		if u.Done() {
			continue
		}
		de := u.diagnose(now)
		de.Unit = i
		if de.Class != HangUnknown {
			return de
		}
		if first == nil {
			first = de
		}
	}
	return first
}

// atUnit names unit i in a step error.
func atUnit(err error, i int) error {
	if me, ok := err.(*MachineError); ok {
		me.Unit = i
	}
	return err
}
