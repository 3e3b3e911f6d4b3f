package workloads_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"softbrain/internal/core"
	"softbrain/internal/isa"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/ext"
	"softbrain/internal/workloads/machsuite"
)

// TestRebuildDiffersOnlyInConfigAddresses pins where a rebuilt workload
// drifts: every MachSuite, extension and DNN workload built twice
// yields programs that differ only in their SD_Config addresses. Those
// come from the process-wide configuration slot counter
// (core.Program.Configure), which every build advances; the compile
// itself is deterministic, so the traces have equal lengths, every
// other op is equal, and the bitstreams are byte-identical in slot
// order. The counter cannot simply become per-program: a cluster's
// units share one memory image, Load writes every unit's
// configurations into it, and SD_Config reads them back from there.
func TestRebuildDiffersOnlyInConfigAddresses(t *testing.T) {
	type build struct {
		name string
		inst func() (*workloads.Instance, error)
	}
	var builds []build
	mcfg := core.DefaultConfig()
	for _, e := range machsuite.All() {
		e := e
		builds = append(builds, build{e.Name, func() (*workloads.Instance, error) { return e.Build(mcfg, 2) }})
	}
	for _, e := range ext.All() {
		e := e
		builds = append(builds, build{e.Name, func() (*workloads.Instance, error) { return e.Build(mcfg, 2) }})
	}
	dcfg := dnn.Config()
	for _, l := range dnn.Layers() {
		l := l
		builds = append(builds, build{l.Name, func() (*workloads.Instance, error) { return l.Build(dcfg, dnn.Units) }})
	}
	for _, b := range builds {
		first, err := b.inst()
		if err != nil {
			t.Fatal(err)
		}
		second, err := b.inst()
		if err != nil {
			t.Fatal(err)
		}
		if len(first.Progs) != len(second.Progs) {
			t.Errorf("%s: %d programs, then %d", b.name, len(first.Progs), len(second.Progs))
			continue
		}
		for u := range first.Progs {
			if err := sameButConfigAddrs(first.Progs[u], second.Progs[u]); err != nil {
				t.Errorf("%s unit %d: %v", b.name, u, err)
			}
		}
	}
}

// sameButConfigAddrs reports how a and b differ other than in which
// configuration slots they occupy.
func sameButConfigAddrs(a, b *core.Program) error {
	if len(a.Trace) != len(b.Trace) {
		return fmt.Errorf("trace of %d ops, then %d", len(a.Trace), len(b.Trace))
	}
	slotsA, slotsB := slotOrder(a), slotOrder(b)
	if len(slotsA) != len(slotsB) {
		return fmt.Errorf("%d configurations, then %d", len(slotsA), len(slotsB))
	}
	for i := range a.Trace {
		ca, okA := a.Trace[i].Cmd.(isa.Config)
		cb, okB := b.Trace[i].Cmd.(isa.Config)
		if okA && okB {
			if ca.Size != cb.Size || slices.Index(slotsA, ca.Addr) != slices.Index(slotsB, cb.Addr) {
				return fmt.Errorf("op %d: %+v, then %+v: not the same slot", i, ca, cb)
			}
			continue
		}
		if !reflect.DeepEqual(a.Trace[i], b.Trace[i]) {
			return fmt.Errorf("op %d: %+v, then %+v", i, a.Trace[i], b.Trace[i])
		}
	}
	for k := range slotsA {
		if !bytes.Equal(a.Configs[slotsA[k]], b.Configs[slotsB[k]]) {
			return fmt.Errorf("bitstream in slot %d (%#x, then %#x) differs", k, slotsA[k], slotsB[k])
		}
	}
	return nil
}

// slotOrder lists p's configuration addresses in ascending order.
func slotOrder(p *core.Program) []uint64 {
	addrs := make([]uint64, 0, len(p.Configs))
	for addr := range p.Configs {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	return addrs
}
