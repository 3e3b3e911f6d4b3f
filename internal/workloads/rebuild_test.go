package workloads_test

import (
	"reflect"
	"testing"

	"softbrain/internal/workloads/catalog"
)

// TestRebuildIsByteIdentical pins the compile step as a deterministic
// function of its inputs: every catalog workload built twice yields
// identical programs — equal traces, SD_Config addresses included, and
// equal bitstreams at equal addresses — because a configuration slot
// is a content address of its bitstream (core.Program.Configure).
func TestRebuildIsByteIdentical(t *testing.T) {
	for _, e := range catalog.All() {
		first, _, err := catalog.Build(e.Name, 2)
		if err != nil {
			t.Fatal(err)
		}
		second, _, err := catalog.Build(e.Name, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(first.Progs) != len(second.Progs) {
			t.Errorf("%s: %d programs, then %d", e.Name, len(first.Progs), len(second.Progs))
			continue
		}
		for u, a := range first.Progs {
			b := second.Progs[u]
			if !reflect.DeepEqual(a.Trace, b.Trace) {
				t.Errorf("%s unit %d: the rebuilt trace differs", e.Name, u)
			}
			if !reflect.DeepEqual(a.Configs, b.Configs) {
				t.Errorf("%s unit %d: the rebuilt configurations differ", e.Name, u)
			}
		}
	}
}
