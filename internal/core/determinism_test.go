// Cluster determinism: per-cycle stepping (SchedPerCycle) is the
// reference semantics of the lockstep run loop, and default scheduling
// — each unit's wake set plus cluster-level frozen jumps — must be
// indistinguishable from it on multi-unit clusters: byte-identical
// memory images, identical per-unit and total statistics, and
// byte-identical metrics dumps. make soak runs this under the race
// detector.
package core_test

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/fix"
	"softbrain/internal/mem"
	"softbrain/internal/obs"
	"softbrain/internal/progen"
	"softbrain/internal/workloads/dnn"
)

// clusterRun is the observable outcome of one metrics-enabled cluster
// run.
type clusterRun struct {
	mem     *mem.Memory
	units   []*core.Stats
	total   *core.Stats
	dump    []byte
	skipped uint64 // cycles elided by frozen jumps
}

// runCluster runs progs on a fresh cluster with metrics attached,
// stepping every cycle when noSkip is set.
func runCluster(t *testing.T, cfg core.Config, progs []*core.Program, init func(*mem.Memory), noSkip bool) clusterRun {
	t.Helper()
	cfg.Sched = schedFor(noSkip)
	cl, err := core.NewCluster(cfg, len(progs))
	if err != nil {
		t.Fatal(err)
	}
	cl.EnableMetrics(obs.Options{})
	if init != nil {
		init(cl.Mem)
	}
	total, err := cl.RunContext(context.Background(), progs)
	if err != nil {
		t.Fatalf("noSkip=%v: %v", noSkip, err)
	}
	d := cl.MetricsDump()
	if err := obs.CheckConservation(d); err != nil {
		t.Errorf("noSkip=%v: %v", noSkip, err)
	}
	dump, err := d.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return clusterRun{cl.Mem, cl.UnitStats(), total, dump, cl.SchedStats().Skipped}
}

// compareClusterModes runs progs per-cycle and with default scheduling,
// reports every difference, and returns the default-scheduling run.
func compareClusterModes(t *testing.T, label string, cfg core.Config, progs []*core.Program, init func(*mem.Memory)) clusterRun {
	t.Helper()
	ref := runCluster(t, cfg, progs, init, true)
	got := runCluster(t, cfg, progs, init, false)
	if !bytes.Equal(ref.dump, got.dump) {
		t.Errorf("%s: metrics dump differs between schedules:\nper-cycle:\n%s\ndefault:\n%s", label, ref.dump, got.dump)
	}
	if addr, diff := got.mem.FirstDiff(ref.mem); diff {
		t.Errorf("%s: memory differs between schedules at %#x", label, addr)
	}
	if len(ref.units) != len(got.units) {
		t.Fatalf("%s: %d vs %d per-unit stats", label, len(ref.units), len(got.units))
	}
	for i := range ref.units {
		if !reflect.DeepEqual(ref.units[i], got.units[i]) {
			t.Errorf("%s: unit %d stats differ:\n  per-cycle: %+v\n  default:   %+v", label, i, ref.units[i], got.units[i])
		}
	}
	if !reflect.DeepEqual(ref.total, got.total) {
		t.Errorf("%s: total stats differ:\n  per-cycle: %+v\n  default:   %+v", label, ref.total, got.total)
	}
	return got
}

// TestClusterDeterminismDNN runs every DNN layer on the 8-unit cluster
// both ways and demands identical results; the golden-model check must
// pass on the default-scheduling image, and frozen jumps must engage.
func TestClusterDeterminismDNN(t *testing.T) {
	cfg := dnn.Config()
	layers := dnn.Layers()
	if testing.Short() {
		layers = layers[:2]
	}
	for _, l := range layers {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			t.Parallel()
			inst, err := l.Build(cfg, dnn.Units)
			if err != nil {
				t.Fatal(err)
			}
			got := compareClusterModes(t, l.Name, cfg, inst.Progs, inst.Init)
			if inst.Check != nil {
				if err := inst.Check(got.mem); err != nil {
					t.Errorf("default-scheduling run failed the golden check: %v", err)
				}
			}
			if got.skipped == 0 {
				t.Error("no frozen jump engaged")
			}
		})
	}
}

// TestClusterDeterminismProgen runs generated programs, rebased to a
// disjoint memory region per unit, on a 4-unit cluster both ways.
func TestClusterDeterminismProgen(t *testing.T) {
	cfg := core.DefaultConfig()
	const units = 4
	const stride = uint64(1) << 20 // disjoint 1 MiB region per unit
	var skipped uint64
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var progs []*core.Program
		_, ports, err := progen.Addpair(cfg)
		if err != nil {
			t.Fatal(err)
		}
		generated := progen.Commands(rng, ports)
		for u := 0; u < units; u++ {
			p, _, err := progen.Addpair(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range progen.Rebase(generated, uint64(u)*stride) {
				p.Emit(c)
			}
			if err := p.Err(); err != nil {
				t.Fatal(err)
			}
			fixed, _, err := fix.Fix(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, fixed)
		}
		init := func(m *mem.Memory) {
			line := make([]byte, 64)
			irng := rand.New(rand.NewSource(seed + 1000))
			for u := 0; u < units; u++ {
				for _, pool := range progen.MemPools {
					irng.Read(line)
					m.Write(pool+uint64(u)*stride, line)
				}
			}
		}
		skipped += compareClusterModes(t, "seed", cfg, progs, init).skipped
	}
	if skipped == 0 {
		t.Error("no generated run took a frozen jump")
	}
}

// TestClusterConfigMismatch: a cluster whose units have different
// configurations — here a unit spliced in from a second cluster — must
// be rejected up front, not silently run under unit 0's watchdog and
// fault policy.
func TestClusterConfigMismatch(t *testing.T) {
	cfgA := core.DefaultConfig()
	cfgB := cfgA
	cfgB.PadBufEntries++
	cl, err := core.NewCluster(cfgA, 2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := core.NewCluster(cfgB, 1)
	if err != nil {
		t.Fatal(err)
	}
	cl.Units[1] = other.Units[0]
	pa, _, err := progen.Addpair(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	pb, _, err := progen.Addpair(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.RunContext(context.Background(), []*core.Program{pa, pb})
	if err == nil || !strings.Contains(err.Error(), "config differs") {
		t.Fatalf("mismatched cluster ran anyway: err=%v", err)
	}
}

// TestClusterConfigClash: the units of a cluster share one memory
// image, so a program set holding two different bitstreams at one
// address is refused before any Load overwrites one with the other.
// Equal bitstreams at one address share the slot and run.
func TestClusterConfigClash(t *testing.T) {
	cfg := core.DefaultConfig()
	pa, _, err := progen.Addpair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pb := core.NewProgram("clash")
	for addr, blob := range pa.Configs {
		pb.Configs[addr] = append([]byte{^blob[0]}, blob[1:]...)
	}
	cl, err := core.NewCluster(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunContext(context.Background(), []*core.Program{pa, pb}); err == nil || !strings.Contains(err.Error(), "different configuration bitstreams") {
		t.Fatalf("clashing program set ran anyway: err=%v", err)
	}
	if _, err := cl.RunContext(context.Background(), []*core.Program{pa, pa}); err != nil {
		t.Fatalf("equal bitstreams at one address: %v", err)
	}
}
