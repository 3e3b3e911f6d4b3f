package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"softbrain/internal/workloads"
)

// A run's set-up rounds take at most setupShare of its measured time,
// and a run has at most maxSetupRounds of them.
const (
	setupShare     = 0.25
	maxSetupRounds = 40
)

// cycleTrim is the share of each program's run times cut at each end
// before ns_per_cycle_gm averages them.
const cycleTrim = 0.1

// setupRounds schedules and records a run's set-up rounds; setup_s is
// the median round. The first round precedes the measured phase and is
// timed from process start. Later rounds are interleaved with the
// measured phase, evenly spaced: the host's speed drifts over seconds,
// so rounds bunched at the start would all see one host state, while
// rounds spread over the run see the same mix of states as the
// operations.
type setupRounds struct {
	dur  time.Duration // length of the measured phase
	next time.Duration // measured time at which the next round is due
	secs []float64
}

// newSetupRounds records the first round, which ends now.
func newSetupRounds(dur time.Duration) *setupRounds {
	s := &setupRounds{dur: dur}
	s.record(0, time.Since(processStart))
	return s
}

// record adds a round that took d, ending at measured time at, and
// schedules the next round, if any.
func (s *setupRounds) record(at, d time.Duration) {
	s.secs = append(s.secs, d.Seconds())
	s.next = at + max(s.dur/maxSetupRounds, time.Duration(float64(d)/setupShare))
	if len(s.secs) >= maxSetupRounds {
		s.next = math.MaxInt64
	}
}

// due reports whether a round is due once the measured phase has run
// for elapsed.
func (s *setupRounds) due(elapsed time.Duration) bool { return elapsed >= s.next }

// run times one interleaved round after collecting the heap, untimed.
// It returns the wall time it took, collection included, which the
// caller leaves out of the measured phase.
func (s *setupRounds) run(elapsed time.Duration, round func() error) (time.Duration, error) {
	start := time.Now()
	runtime.GC()
	t := time.Now()
	err := round()
	s.record(elapsed, time.Since(t))
	return time.Since(start), err
}

// setupSim builds every program and runs each once, untimed, through the
// cycle gate: one set-up round of a simulation workload.
func setupSim(ctx context.Context, progs []*program, gate *cycleGate) ([]*workloads.Instance, error) {
	insts := make([]*workloads.Instance, len(progs))
	for i, p := range progs {
		inst, err := p.build()
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", p.key(), err)
		}
		insts[i] = inst
	}
	for i, p := range progs {
		op, err := runOnce(ctx, nil, -1, p, insts[i], false)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := gate.check(p.key(), p.golden, op.stats.Cycles); err != nil {
			return nil, err
		}
	}
	return insts, nil
}

// benchSim is the untraced run of a simulation workload: a closed loop
// of one operation at a time, the programs interleaved round-robin in a
// seeded order, every sample started from a freshly collected heap.
func benchSim(ctx context.Context, rep *report, progs []*program, seed int64, dur time.Duration) error {
	gate := newCycleGate()
	insts, err := setupSim(ctx, progs, gate)
	if err != nil {
		return err
	}
	rounds := newSetupRounds(dur)

	rng := rand.New(rand.NewSource(seed))
	runMs := make([][]float64, len(progs))
	var done int
	var busy, paused time.Duration
	start := time.Now()
	measured := func() time.Duration { return time.Since(start) - paused }
	for measured() < dur {
		if rounds.due(measured()) {
			d, err := rounds.run(measured(), func() error {
				_, err := setupSim(ctx, progs, gate)
				return err
			})
			paused += d
			if err != nil {
				return fmt.Errorf("set-up round: %w", err)
			}
		}
		for _, i := range rng.Perm(len(progs)) {
			p := progs[i]
			runtime.GC()
			t := time.Now()
			op, err := runOnce(ctx, nil, -1, p, insts[i], false)
			busy += time.Since(t)
			rep.attempted++
			if err == nil {
				err = gate.check(p.key(), p.golden, op.stats.Cycles)
			}
			if err != nil {
				rep.failf("%v", err)
				continue
			}
			runMs[i] = append(runMs[i], ms(op.run))
			done++
		}
	}

	rep.add(timing("setup_s", "s", rounds.secs, 0.5))
	addLatency(rep, runMs)
	rep.add(ratio("ops_per_s", "1/s", float64(done), busy.Seconds(),
		"completed runs / seconds spent in NewCluster+Init+RunContext+Check", false))
	var perCycle []float64
	for i, p := range progs {
		cycles := gate.seen[p.key()]
		q1, med, q3 := quartiles(runMs[i])
		tm := trimmedMean(runMs[i], cycleTrim)
		perCycle = append(perCycle, tm*1e6/float64(cycles))
		rep.notef("%-14s n=%-4d run_ms q1=%.3f med=%.3f q3=%.3f p90=%.3f trimmed mean=%.3f  cycles=%d (golden %d)  %.1f ns/cycle",
			p.key(), len(runMs[i]), q1, med, q3, percentile(runMs[i], 0.9), tm, cycles, p.golden, tm*1e6/float64(cycles))
	}
	rep.add(metric{name: "ns_per_cycle_gm", unit: "ns/cycle", value: geomean(perCycle), n: len(perCycle)})
	return nil
}

// addLatency reports operation-time percentiles over groups of samples:
// the median, p90 and, where at least ten samples of every group lie
// beyond it, p99, each the geometric mean over the groups of the group's
// own percentile. A simulation workload's groups are its programs, whose
// run times differ several-fold: a percentile of their pooled samples
// can fall in the gap between two programs' times and jump across it
// from run to run however many samples there are, while each program's
// own percentile lies inside its times. The service mix is one group,
// its requests, so its percentiles weigh each request class by its
// traffic.
func addLatency(rep *report, groups [][]float64) {
	rep.add(groupTiming("p50_ms", "ms", groups, 0.5))
	rep.add(groupTiming("p90_ms", "ms", groups, 0.9))
	if k := minBeyond(groups, 0.9); k < 10 {
		rep.notef("p90_ms has only %d samples beyond it in its smallest group", k)
	}
	if k := minBeyond(groups, 0.99); k >= 10 {
		rep.add(groupTiming("p99_ms", "ms", groups, 0.99))
	} else {
		rep.notef("p99_ms not reported: %d samples beyond it in the smallest group (10 needed)", k)
	}
}

// minBeyond is the least count, over groups, of samples beyond the
// group's q-quantile.
func minBeyond(groups [][]float64, q float64) int {
	k := math.MaxInt
	for _, g := range groups {
		k = min(k, beyond(g, q))
	}
	return k
}
