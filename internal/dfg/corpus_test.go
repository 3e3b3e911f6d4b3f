package dfg_test

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"softbrain/internal/cgra"
	"softbrain/internal/core"
	"softbrain/internal/progen"
	"softbrain/internal/workloads/catalog"
)

var update = flag.Bool("update", false, "rewrite testdata/graphs from the built-in workloads and progen")

// TestGraphCorpusCurrent checks that testdata/graphs holds exactly the
// text form of every distinct DFG that the built-in workloads (at scales
// 1 and 2) and internal/progen configure, decoded from the configuration
// bitstreams as SD_Config decodes them. The files seed FuzzEvaluator and
// TestEvaluatorMatchesOracle. Regenerate them with
//
//	go test ./internal/dfg -run TestGraphCorpusCurrent -update
func TestGraphCorpusCurrent(t *testing.T) {
	want := map[string]string{} // file name -> graph text
	seen := map[string]bool{}   // graph texts already named
	add := func(owner string, cfg core.Config, progs []*core.Program) {
		for _, p := range progs {
			addrs := make([]uint64, 0, len(p.Configs))
			for a := range p.Configs {
				addrs = append(addrs, a)
			}
			sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
			for _, a := range addrs {
				s, err := cgra.DecodeConfig(cfg.Fabric, p.Configs[a])
				if err != nil {
					t.Fatalf("%s: %v", owner, err)
				}
				text := s.Graph.String()
				if seen[text] {
					continue
				}
				seen[text] = true
				name := owner + "." + s.Graph.Name
				for i := 2; want[name] != ""; i++ {
					name = owner + "." + s.Graph.Name + "." + strconv.Itoa(i)
				}
				want[name] = text
			}
		}
	}
	for _, e := range catalog.All() {
		for _, scale := range []int{1, 2} {
			inst, err := e.Build(e.Config(), scale)
			if err != nil {
				t.Fatalf("%s scale %d: %v", e.Name, scale, err)
			}
			add(e.Name, e.Config(), inst.Progs)
		}
	}
	cfg := core.DefaultConfig()
	p, _, err := progen.Addpair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	add("progen", cfg, []*core.Program{p})

	dir := filepath.Join("testdata", "graphs")
	old, _ := filepath.Glob(filepath.Join(dir, "*.dfg"))
	if *update {
		for _, f := range old {
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, text := range want {
			if err := os.WriteFile(filepath.Join(dir, name+".dfg"), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for _, f := range old {
		name := strings.TrimSuffix(filepath.Base(f), ".dfg")
		if _, ok := want[name]; !ok {
			t.Errorf("%s: no workload builds this graph", f)
		}
	}
	for name, text := range want {
		got, err := os.ReadFile(filepath.Join(dir, name+".dfg"))
		if err != nil || string(got) != text {
			t.Errorf("%s.dfg is missing or stale", name)
		}
	}
	if t.Failed() {
		t.Log("regenerate with: go test ./internal/dfg -run TestGraphCorpusCurrent -update")
	}
}
