package core

import (
	"context"

	"softbrain/internal/sim"
)

const defaultWatchdog = 50_000

// runUnits is the simulator's one run loop. It steps the loaded units
// in lockstep, in unit order, until every unit is done, and returns
// each unit's statistics with Cycles set to the cycle the last unit
// finished. Units share the backing memory and the DRAM channel, so
// unit order within a cycle is the DRAM grant order. A Machine runs
// through here as a one-unit cluster.
//
// Invariant panics from any component are recovered into a
// MachineError naming the unit — the execution contract is that a run
// returns, it never takes the host process down. Step errors name
// their unit the same way (0 for a machine).
func runUnits(ctx context.Context, units []*Machine, hb *heartbeat) (stats []*Stats, err error) {
	bases := make([]sysCounters, len(units))
	anyFaults := false
	for i, u := range units {
		bases[i] = snapshotSys(u.Sys)
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
	var lastProgress, lastChange, hbIter uint64
	diagnosed := false
	for running(units) {
		for i, u := range units {
			if u.Done() {
				continue
			}
			cur = i
			if err := u.Step(now); err != nil {
				return nil, atUnit(err, i)
			}
		}
		if hbIter++; hbIter&(heartbeatStride-1) == 0 {
			if ce := canceled(ctx, now); ce != nil {
				return nil, ce
			}
			hb.beat(units, now)
		}
		var pr uint64
		for _, u := range units {
			pr += u.progress()
		}
		stillRunning := running(units) // a Step may have just finished its unit
		if pr != lastProgress {
			lastProgress, lastChange = pr, now
			diagnosed = false
		} else if stillRunning {
			idle := now - lastChange
			// Quiescence: no progress for the grace period and no timed
			// event pending in any running unit — provably stuck, so
			// diagnose now rather than burning the full watchdog budget.
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
			// Frozen jump: when every running unit is asleep and the
			// earliest wake is a known future cycle, jump there — the
			// units are frozen (nothing Ready, no watch signal moved),
			// so the elided cycles are provably no-ops and the kernels
			// only record them; slept components replay their
			// bookkeeping lazily before their next tick. A unit with
			// wake scheduling disabled reports Ready and vetoes. The
			// target is capped at the cycle the watchdog would fire, so
			// a hung run diagnoses at exactly the cycle the unskipped
			// run would; skipped spans contain no quiescent cycle (a
			// timed event is pending throughout), so no quiescence
			// check is bypassed.
			h := sim.Idle()
			for _, u := range units {
				if !u.Done() {
					h = h.Earliest(u.NextWake(now))
				}
			}
			if h.Kind == sim.WakeTimed && h.At > next {
				target := h.At
				if deadline := lastChange + watchdog + 1; target > deadline {
					target = deadline
				}
				if target > next {
					for _, u := range units {
						if !u.Done() {
							u.onSkip(next, target)
						}
					}
					next = target
				}
			} else if len(units) == 1 {
				// Span retirement, for lone units only: peers share DRAM
				// arbitration, which a batched unit could reorder. When
				// one component is due and the rest sleep, its ticks
				// batch in one call (see Machine.retireSpan), capped at
				// the watchdog deadline like the jump above.
				n, err := units[0].retireSpan(next, lastChange+watchdog+1)
				if err != nil {
					return nil, atUnit(err, 0)
				}
				next += n
			}
		}
		now = next
	}
	stats = make([]*Stats, len(units))
	for i, u := range units {
		stats[i] = u.collect(now, bases[i])
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
