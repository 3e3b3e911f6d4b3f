// Placement: the closed loop between the observability layer and the
// static analysis, end to end on the SpMV example. A fully serialized
// program (an SD_Barrier_All after every command — what a cautious
// programmer writes) is repaired by sdfix, normalized to the
// latest-legal barrier placement, profiled for per-barrier drain
// cycles, and then re-placed by the cost-aware chooser, which slides
// each expensive barrier within its legal placement interval and
// commits only simulated improvements. Every variant runs against the
// example's golden checker. See docs/LINT.md ("Placement intervals &
// cost-aware hoisting").
package main

import (
	"context"
	"fmt"
	"log"

	"softbrain"
	"softbrain/examples/programs"
	"softbrain/internal/fix"
	"softbrain/internal/isa"
	"softbrain/internal/obs"
	"softbrain/internal/wire"
)

func main() {
	ex, err := programs.SpMV()
	if err != nil {
		log.Fatal(err)
	}

	naive := serialize(ex.Prog)
	fixed, rep, err := softbrain.FixProgram(naive, ex.Cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serialized %s: %d barriers; sdfix keeps %d\n",
		ex.Name, rep.BarriersBefore, rep.BarriersAfter)

	latest, _, err := fix.PlaceLatest(fixed, ex.Cfg)
	if err != nil {
		log.Fatal(err)
	}
	lStats, dump, err := run(ex, latest, true)
	if err != nil {
		log.Fatal(err)
	}
	profile := fix.ProfileFromUnit(dump.Units[0])
	fmt.Printf("latest-legal baseline: %d cycles, %d spent draining %d profiled barriers\n",
		lStats.Cycles, lStats.BarrierCycles, len(profile))

	evaluate := func(p *softbrain.Program) (uint64, error) {
		s, _, err := run(ex, p, false)
		if err != nil {
			return 0, err
		}
		return s.Cycles, nil
	}
	hoisted, moves, err := fix.HoistBarriers(latest, ex.Cfg,
		fix.HoistOpts{Profile: profile, Evaluate: evaluate})
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range moves {
		fmt.Printf("  hoist trace[%d] -> trace[%d] %v: drain %d, %d -> %d cycles\n",
			h.From, h.To, h.Kind, h.Drain, h.CyclesBefore, h.CyclesAfter)
	}
	hStats, _, err := run(ex, hoisted, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cost-aware placement: %d cycles (%+d), barrier drain %d (%+d)\n",
		hStats.Cycles, int64(hStats.Cycles)-int64(lStats.Cycles),
		hStats.BarrierCycles, int64(hStats.BarrierCycles)-int64(lStats.BarrierCycles))

	// The tuned placement is what a deployment would ship — for example
	// as a submission to sdserve — so round-trip it through the wire
	// serializer and prove the decoded program still simulates
	// identically. internal/wire's fuzz tests cover this encode/decode
	// pair on arbitrary programs; this is the same contract on a real one.
	blob, err := wire.EncodeProgram(hoisted)
	if err != nil {
		log.Fatal(err)
	}
	decoded, err := wire.DecodeProgram(blob)
	if err != nil {
		log.Fatal(err)
	}
	dStats, _, err := run(ex, decoded, false)
	if err != nil {
		log.Fatal(err)
	}
	if dStats.Cycles != hStats.Cycles {
		log.Fatalf("wire round-trip changed the simulation: %d -> %d cycles",
			hStats.Cycles, dStats.Cycles)
	}
	fmt.Printf("wire round-trip: %d-byte JSON, decoded program verified at %d cycles\n",
		len(blob), dStats.Cycles)
}

// run executes one placement variant against the example's inputs and
// golden checker, optionally with metrics for the drain profile.
func run(ex programs.Example, p *softbrain.Program, metrics bool) (*softbrain.Stats, obs.Dump, error) {
	cl, err := softbrain.NewCluster(ex.Cfg, 1)
	if err != nil {
		return nil, obs.Dump{}, err
	}
	if metrics {
		cl.EnableMetrics(obs.Options{})
	}
	ex.Init(cl.Mem)
	stats, err := cl.RunContext(context.Background(), []*softbrain.Program{p})
	if err != nil {
		return nil, obs.Dump{}, err
	}
	if err := ex.Check(cl.Mem); err != nil {
		return nil, obs.Dump{}, err
	}
	var d obs.Dump
	if metrics {
		d = cl.MetricsDump()
	}
	return stats, d, nil
}

// serialize rebuilds p with an SD_Barrier_All after every non-barrier
// command.
func serialize(p *softbrain.Program) *softbrain.Program {
	q := softbrain.NewProgram(p.Name)
	for addr, blob := range p.Configs {
		q.Configs[addr] = blob
	}
	for _, op := range p.Trace {
		q.Trace = append(q.Trace, op)
		if op.Cmd != nil && !isa.IsBarrier(op.Cmd) {
			q.Trace = append(q.Trace, softbrain.TraceOp{Cmd: isa.BarrierAll{}})
		}
	}
	return q
}
