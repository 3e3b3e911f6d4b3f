package catalog_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"softbrain/internal/workloads/catalog"
	"softbrain/internal/workloads/dnn"
)

// TestCatalogNames checks that names are unique, that Find returns
// every entry, and that the suites come in their fixed order.
func TestCatalogNames(t *testing.T) {
	seen := map[string]bool{}
	var suites []string
	for _, e := range catalog.All() {
		if seen[e.Name] {
			t.Errorf("%s listed twice", e.Name)
		}
		seen[e.Name] = true
		if len(suites) == 0 || suites[len(suites)-1] != e.Suite {
			suites = append(suites, e.Suite)
		}
		f, err := catalog.Find(e.Name)
		if err != nil || f.Name != e.Name || f.Suite != e.Suite {
			t.Errorf("Find(%q) = %s/%s, %v", e.Name, f.Suite, f.Name, err)
		}
	}
	if want := []string{"machsuite", "ext", "dnn"}; !slices.Equal(suites, want) {
		t.Errorf("suites in order %v, want %v", suites, want)
	}
}

// TestCatalogBuilds builds every entry at scale 1 on its own machine:
// MachSuite and extension codes on one unit, DNN layers on dnn.Units.
// The units of one instance share a memory image, so they must never
// hold different bitstreams at one address.
func TestCatalogBuilds(t *testing.T) {
	for _, e := range catalog.All() {
		inst, err := e.Build(e.Config(), 1)
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		want := 1
		if e.Suite == "dnn" {
			want = dnn.Units
		}
		if inst.Units() != want {
			t.Errorf("%s: %d units, want %d", e.Name, inst.Units(), want)
		}
		for i, p := range inst.Progs {
			for _, q := range inst.Progs[:i] {
				for addr, blob := range p.Configs {
					if other, ok := q.Configs[addr]; ok && !bytes.Equal(blob, other) {
						t.Errorf("%s: units %s and %s hold different bitstreams at %#x", e.Name, q.Name, p.Name, addr)
					}
				}
			}
		}
	}
}

// TestCatalogUnknown checks that an unknown name is an error.
func TestCatalogUnknown(t *testing.T) {
	if _, err := catalog.Find("no-such-workload"); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("Find: err = %v, want an unknown workload error", err)
	}
	if _, _, err := catalog.Build("no-such-workload", 1); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("Build: err = %v, want an unknown workload error", err)
	}
}
