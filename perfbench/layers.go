package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"softbrain/internal/core"
	"softbrain/internal/sim"
)

// layerRec gathers one program's per-call timings (ms) in a layer loop,
// and the counts of its first sample.
type layerRec struct {
	build, newCluster, init, run, check []float64
	mrun, dump                          []float64 // metrics-enabled runs
	wkey, wdecode                       []float64 // summed over the program's units
	turn                                []float64 // the whole turn, span recording included
	stats                               *core.Stats
	sched                               sim.SchedStats
	units                               int
}

// layerLoop runs rounds of every program, in a seeded order, until dur
// elapses: build it (workloads), run it plainly and with metrics
// attached (core, obs), and key and decode each unit's wire form (wire).
// Raw wire programs get the wire calls only. Rounds alternate between
// untraced and traced, so host drift hits both alike, and every turn is
// timed whole in both for the tracing overhead; in a traced round each
// program's turn is one top-level span on client 0. The heap is
// collected at the start of every turn. It returns the records of the
// untraced and the traced rounds, and the number of traced turns.
func layerLoop(ctx context.Context, tr *tracer, progs []*program, raws []*rawProg, seed int64, dur time.Duration, gate *cycleGate, rep *report) (plain, traced map[string]*layerRec, ops int) {
	newRecs := func() map[string]*layerRec {
		recs := map[string]*layerRec{}
		for _, p := range progs {
			recs[p.key()] = &layerRec{}
		}
		for _, rp := range raws {
			recs["raw:"+rp.name] = &layerRec{}
		}
		return recs
	}
	plain, traced = newRecs(), newRecs()
	rng := rand.New(rand.NewSource(seed))
	n := len(progs) + len(raws)
	for round, deadline := 0, time.Now().Add(dur); round < 2 || time.Now().Before(deadline); round++ {
		rt, recs := tr, traced
		if round%2 == 0 {
			rt, recs = nil, plain
		}
		roundStart := time.Now()
		for _, i := range rng.Perm(n) {
			if rt != nil {
				ops++
			}
			t := time.Now()
			root := rt.root("bench.op", int64(ops), 0, "")
			gc := rt.child("bench.reset", root)
			runtime.GC()
			rt.end(gc)
			var rec *layerRec
			var err error
			if i < len(progs) {
				rec = recs[progs[i].key()]
				err = layerProgram(ctx, rt, root, progs[i], rec, gate)
			} else {
				rp := raws[i-len(progs)]
				rec = recs["raw:"+rp.name]
				err = layerRaw(rt, root, rp, rec)
			}
			rt.end(root)
			rec.turn = append(rec.turn, ms(time.Since(t)))
			rep.attempted++
			if err != nil {
				rep.failf("%v", err)
			}
		}
		if rt == nil {
			tr.untraced(0, roundStart)
		}
	}
	return plain, traced, ops
}

// layerProgram is one program's turn in the layer loop.
func layerProgram(ctx context.Context, tr *tracer, root int, p *program, rec *layerRec, gate *cycleGate) error {
	sp := tr.child("workloads.build", root)
	t := time.Now()
	inst, err := p.build()
	rec.build = append(rec.build, ms(time.Since(t)))
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("building %s: %w", p.key(), err)
	}
	op, err := runOnce(ctx, tr, root, p, inst, false)
	if err != nil {
		return err
	}
	if err := gate.check(p.key(), p.golden, op.stats.Cycles); err != nil {
		return err
	}
	if rec.stats == nil {
		rec.stats, rec.sched, rec.units = op.stats, op.sched, len(inst.Progs)
	}
	rec.newCluster = append(rec.newCluster, ms(op.newCluster))
	rec.init = append(rec.init, ms(op.init))
	rec.run = append(rec.run, ms(op.run))
	rec.check = append(rec.check, ms(op.check))

	var key, decode time.Duration
	for _, u := range inst.Progs {
		k, d, err := wireCalls(tr, root, u)
		if err != nil {
			return fmt.Errorf("%s: %w", p.key(), err)
		}
		key += k
		decode += d
	}
	rec.wkey = append(rec.wkey, ms(key))
	rec.wdecode = append(rec.wdecode, ms(decode))

	gc := tr.child("bench.reset", root)
	runtime.GC()
	tr.end(gc)
	mop, err := runOnce(ctx, tr, root, p, inst, true)
	if err != nil {
		return fmt.Errorf("metrics run: %w", err)
	}
	if mop.stats.Cycles != op.stats.Cycles {
		return fmt.Errorf("%s: metrics changed the cycle count (%d -> %d)", p.key(), op.stats.Cycles, mop.stats.Cycles)
	}
	rec.mrun = append(rec.mrun, ms(mop.run))
	rec.dump = append(rec.dump, ms(mop.dump))
	return nil
}

// layerRaw is a raw wire program's turn: decode its wire form, then key
// the decoded program.
func layerRaw(tr *tracer, root int, rp *rawProg, rec *layerRec) error {
	sp := tr.child("wire.decode", root)
	t := time.Now()
	prog, err := rp.wp.Build()
	decode := time.Since(t)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("raw %s: %w", rp.name, err)
	}
	sp = tr.child("wire.key", root)
	t = time.Now()
	_, _, err = wireKey(prog)
	key := time.Since(t)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("raw %s: %w", rp.name, err)
	}
	rec.wkey = append(rec.wkey, ms(key))
	rec.wdecode = append(rec.wdecode, ms(decode))
	return nil
}

// wireCalls keys a unit program (wire.FromProgram, canonical encoding,
// SHA-256) and decodes the wire form back (wire.Program.Build),
// checking that the round trip keys identically.
func wireCalls(tr *tracer, root int, u *core.Program) (key, decode time.Duration, err error) {
	sp := tr.child("wire.key", root)
	t := time.Now()
	wp, sum, err := wireKey(u)
	key = time.Since(t)
	tr.end(sp)
	if err != nil {
		return key, 0, err
	}
	sp = tr.child("wire.decode", root)
	t = time.Now()
	back, err := wp.Build()
	decode = time.Since(t)
	tr.end(sp)
	if err != nil {
		return key, decode, err
	}
	if _, again, err := wireKey(back); err != nil || again != sum {
		return key, decode, fmt.Errorf("wire round trip of %s changed its key", u.Name)
	}
	return key, decode, nil
}

// Shares of --seconds given to the traced run's phases: the layer loop
// and the traced service mix.
const (
	layerShare = 0.6
	serveShare = 0.4
)

// benchLayers is the traced run. It repeats the workload's programs in
// a layer loop whose rounds alternate between untraced and traced, then
// drives the service over the workload's keys with tracing on, and
// reports every per-layer metric. The trace is written to outDir as
// Chrome trace-event JSON.
func benchLayers(ctx context.Context, rep *report, progs []*program, m *mix, seed int64, dur time.Duration, outDir string) error {
	gate := newCycleGate()
	if _, err := setupSim(ctx, progs, gate); err != nil {
		return err
	}
	seconds := func(share float64) time.Duration { return time.Duration(share * float64(dur)) }

	tr := newTracer()
	plain, traced, ops := layerLoop(ctx, tr, progs, m.raw, seed, seconds(layerShare), gate, rep)

	sched, err := newSchedule(m, seed)
	if err != nil {
		return err
	}
	svc, err := setupService(ctx, m, sched, gate)
	if err != nil {
		return err
	}
	var run mixRun
	err = run.drive(ctx, svc, sched, seed, seconds(serveShare), tr)
	svc.close()
	if err != nil {
		return err
	}
	rep.attempted += run.attempted
	for _, f := range run.failures {
		rep.failf("%s", f)
	}

	st, err := tr.analyze()
	if err != nil {
		rep.problemf("%v", err)
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", rep.workload, seed))
	if err := tr.writeChrome(path); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	rep.notef("trace: %d spans, %d top-level, written to %s", st.spans, st.ops, path)

	for _, p := range progs {
		a, b := plain[p.key()], traced[p.key()]
		if a.stats != nil && b.stats != nil && a.sched != b.sched {
			rep.problemf("%s: scheduler counts differ between the untraced and traced runs", p.key())
		}
	}
	addLayerMetrics(rep, progs, m.raw, plain, traced)
	addServeClasses(rep, &run, true)

	layerOps := float64(ops)
	for _, l := range []string{"bench", "workloads", "core", "obs", "wire"} {
		rep.add(ratio(l+".self_ms", "ms/op", ms(st.selfBy[l]), layerOps,
			"self time (ms) in the layer loop / top-level operations", false))
	}
	var layers []string
	for l := range st.selfBy {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		rep.notef("self time %-10s %10.1f ms  %5.1f%% of traced wall time", l, ms(st.selfBy[l]), 100*float64(st.selfBy[l])/float64(st.wall))
	}
	rep.add(ratio("trace.uncovered_frac", "ratio", float64(st.wall-st.covered), float64(st.wall),
		fmt.Sprintf("ns outside top-level spans / traced client wall ns, tolerance %.2f", tilingTolerance), true))
	return nil
}

// addLayerMetrics reports the core, sim, mem, obs, wire and workloads
// metrics of the traced layer loop, and the tracing overhead against
// the untraced rounds. Timings are geometric means over programs of each
// program's median; counts are summed over programs. Each derived
// per-program figure is noted with its numerator and denominator.
func addLayerMetrics(rep *report, progs []*program, raws []*rawProg, plain, traced map[string]*layerRec) {
	var simKeys, wireKeys []string
	for _, p := range progs {
		simKeys = append(simKeys, p.key())
		if plain[p.key()].stats == nil || traced[p.key()].stats == nil {
			rep.problemf("%s: no complete sample in the untraced and traced layer loops", p.key())
			return
		}
	}
	wireKeys = append(wireKeys, simKeys...)
	for _, rp := range raws {
		wireKeys = append(wireKeys, "raw:"+rp.name)
		if len(traced["raw:"+rp.name].wkey) == 0 {
			rep.problemf("raw:%s: no sample in the traced layer loop", rp.name)
			return
		}
	}
	// gm reports the geometric mean over keys of num/den; of, when set,
	// names the parts, which are then noted per program.
	gm := func(name, unit string, keys []string, of string, pick func(*layerRec) (num, den float64)) {
		var xs []float64
		for _, k := range keys {
			num, den := pick(traced[k])
			xs = append(xs, num/den)
			if of != "" {
				rep.notef("  %-24s %-14s %.6g = %.6g / %.6g (%s)", name, k, num/den, num, den, of)
			} else {
				rep.notef("  %-24s %-14s %.6g", name, k, num)
			}
		}
		rep.add(metric{name: name, unit: unit, value: geomean(xs), n: len(xs)})
	}
	medianOf := func(pick func(*layerRec) []float64) func(*layerRec) (float64, float64) {
		return func(r *layerRec) (float64, float64) { return median(pick(r)), 1 }
	}
	gm("workloads.build_ms", "ms", simKeys, "", medianOf(func(r *layerRec) []float64 { return r.build }))
	gm("core.new_cluster_ms", "ms", simKeys, "", medianOf(func(r *layerRec) []float64 { return r.newCluster }))
	gm("core.init_ms", "ms", simKeys, "", medianOf(func(r *layerRec) []float64 { return r.init }))
	gm("core.run_ms", "ms", simKeys, "", medianOf(func(r *layerRec) []float64 { return r.run }))
	gm("core.check_ms", "ms", simKeys, "", medianOf(func(r *layerRec) []float64 { return r.check }))
	gm("core.unit_ns_per_cycle", "ns/cycle", simKeys, "median run ns / (cycles x units)", func(r *layerRec) (float64, float64) {
		return median(r.run) * 1e6, float64(r.stats.Cycles) * float64(r.units)
	})
	gm("mem.ns_per_kib", "ns/KiB", simKeys, "median run ns / KiB read and written in mem and scratch", func(r *layerRec) (float64, float64) {
		moved := r.stats.MemBytesRead + r.stats.MemBytesWritten + r.stats.ScratchBytesRead + r.stats.ScratchBytesWrit
		return median(r.run) * 1e6, float64(moved) / 1024
	})
	gm("obs.metrics_overhead", "ratio", simKeys, "median run ms with metrics / without", func(r *layerRec) (float64, float64) {
		return median(r.mrun), median(r.run)
	})
	gm("obs.dump_ms", "ms", simKeys, "", medianOf(func(r *layerRec) []float64 { return r.dump }))
	gm("wire.decode_ms", "ms", wireKeys, "", medianOf(func(r *layerRec) []float64 { return r.wdecode }))
	gm("wire.key_ms", "ms", wireKeys, "", medianOf(func(r *layerRec) []float64 { return r.wkey }))

	var sched sim.SchedStats
	var hits, misses, dramBytes, peakBytes float64
	for _, p := range progs {
		r := traced[p.key()]
		sched.Add(r.sched)
		hits += float64(r.stats.CacheHits)
		misses += float64(r.stats.CacheMisses)
		line := float64(p.cfg.Mem.LineBytes)
		dram := float64(r.stats.CacheMisses) * line
		peak := float64(r.stats.Cycles) * line / float64(p.cfg.Mem.MissInterval)
		if dram > peak {
			rep.problemf("%s: DRAM traffic %g B exceeds the channel's %g B", p.key(), dram, peak)
		}
		dramBytes += dram
		peakBytes += peak
	}
	unitCycles := float64(sched.Cycles + sched.Skipped)
	rep.add(ratio("sim.ticks_per_cycle", "ticks/cycle", float64(sched.CompTicks), unitCycles, "component ticks / unit-cycles", false))
	rep.add(ratio("sim.span_cycle_frac", "ratio", float64(sched.SpanCycles), unitCycles, "cycles in retired spans / unit-cycles", true))
	rep.add(ratio("sim.skip_cycle_frac", "ratio", float64(sched.Skipped), unitCycles, "cycles skipped by frozen jumps / unit-cycles", true))
	rep.add(ratio("sim.sig_wakes_per_cycle", "wakes/cycle", float64(sched.SigWakes), unitCycles, "watch-signature wakes / unit-cycles", false))
	rep.add(ratio("mem.cache_hit_ratio", "ratio", hits, hits+misses,
		"cache hits / line requests that looked up the cache", true))
	rep.add(ratio("mem.dram_util", "ratio", dramBytes, peakBytes,
		"DRAM bytes (misses x LineBytes) / channel bytes (cycles x LineBytes/MissInterval)", true))

	// The tracing overhead compares whole turns of every program and raw
	// program, so it includes the cost of recording their spans.
	var ratios []float64
	for _, k := range wireKeys {
		a, b := median(plain[k].turn), median(traced[k].turn)
		ratios = append(ratios, b/a)
		rep.notef("  %-24s %-14s %.4g = %.4g / %.4g (median turn ms traced / untraced, %d / %d turns)",
			"trace.overhead", k, b/a, b, a, len(traced[k].turn), len(plain[k].turn))
	}
	rep.add(metric{name: "trace.overhead", unit: "ratio", value: geomean(ratios), n: len(ratios)})
}
