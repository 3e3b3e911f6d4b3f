// Command perfab summarizes the paired benchmark runs scripts/perf_ab.sh
// collects: per metric, each side's median and quartiles, the ratio of
// the medians, whether the gap between the medians exceeds the parent's
// interquartile range, in how many pairs the change did better, and
// whether the runs support claiming the metric improved.
//
// The claim column reads "yes" only when all three hold: the change
// did better in at least 9 of every 10 pairs (a tied pair is no win);
// its median moved past the parent's interquartile range in the better
// direction; and it failed no more operations than the parent.
//
//	go run ./scripts/perfab [-bench BENCHMARK.json] <results-dir>
//
// The directory holds one file per run, <seed>.parent.json and
// <seed>.change.json, each the result line perfbench prints last. Runs
// of one seed form a pair. Whether lower or higher is better comes from
// BENCHMARK.json; a metric it does not list counts lower as better.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// result is the part of perfbench's result line the summary reads.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// pair is the two runs of one seed.
type pair struct {
	seed           string
	parent, change *result
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark declaration naming each metric's better direction")
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: perfab [-bench BENCHMARK.json] <results-dir>")
		return 2
	}
	higher, err := higherBetter(*bench)
	if err != nil {
		fmt.Fprintln(stderr, "perfab:", err)
		return 1
	}
	pairs, err := readPairs(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "perfab:", err)
		return 1
	}
	if len(pairs) == 0 {
		fmt.Fprintln(stderr, "perfab: no complete pairs in", fs.Arg(0))
		return 1
	}
	summarize(stdout, pairs, higher)
	return 0
}

// higherBetter reads the metrics BENCHMARK.json declares better when
// higher.
func higherBetter(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bool{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		out[m.Name] = m.Better == "higher"
	}
	return out, nil
}

// readPairs loads every seed that has both a parent and a change run,
// in seed order.
func readPairs(dir string) ([]pair, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.parent.json"))
	if err != nil {
		return nil, err
	}
	var out []pair
	for _, pf := range files {
		seed := strings.TrimSuffix(filepath.Base(pf), ".parent.json")
		p, err := readResult(pf)
		if err != nil {
			return nil, err
		}
		c, err := readResult(filepath.Join(dir, seed+".change.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, pair{seed: seed, parent: p, change: c})
	}
	sort.Slice(out, func(i, j int) bool { // numeric order of decimal seeds
		a, b := out[i].seed, out[j].seed
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out, nil
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// summarize prints one row per metric both sides of every pair report.
func summarize(w io.Writer, pairs []pair, higher map[string]bool) {
	names := map[string]string{}
	for _, p := range pairs {
		for name, m := range p.parent.Metrics {
			if _, ok := p.change.Metrics[name]; ok {
				names[name] = m.Unit
			}
		}
	}
	var order []string
	for name := range names {
		order = append(order, name)
	}
	sort.Strings(order)

	fmt.Fprintf(w, "%d pairs (seeds", len(pairs))
	for _, p := range pairs {
		fmt.Fprintf(w, " %s", p.seed)
	}
	fmt.Fprintln(w, ")")
	var pf, cf int
	for _, p := range pairs {
		pf += p.parent.Failed
		cf += p.change.Failed
	}
	fmt.Fprintf(w, "%-18s %-9s %28s %28s %8s %8s %6s %6s\n",
		"metric", "unit", "parent median [q1-q3]", "change median [q1-q3]", "chg/par", "gap>IQR", "wins", "claim")
	for _, name := range order {
		var par, chg []float64
		wins := 0
		for _, p := range pairs {
			pm, okP := p.parent.Metrics[name]
			cm, okC := p.change.Metrics[name]
			if !okP || !okC {
				continue
			}
			par, chg = append(par, pm.Value), append(chg, cm.Value)
			if (higher[name] && cm.Value > pm.Value) || (!higher[name] && cm.Value < pm.Value) {
				wins++
			}
		}
		pq1, pmed, pq3 := quartiles(par)
		cq1, cmed, cq3 := quartiles(chg)
		gain := pmed - cmed // positive when the change's median is better
		if higher[name] {
			gain = -gain
		}
		claim := wins*10 >= 9*len(par) && gain > pq3-pq1 && cf <= pf
		fmt.Fprintf(w, "%-18s %-9s %28s %28s %8.3f %8s %3d/%-2d %6s\n", name, names[name],
			spread(pmed, pq1, pq3), spread(cmed, cq1, cq3), cmed/pmed,
			yesNo(math.Abs(cmed-pmed) > pq3-pq1), wins, len(par), yesNo(claim))
	}
	var pc, cc int
	for _, p := range pairs {
		if p.parent.Correct {
			pc++
		}
		if p.change.Correct {
			cc++
		}
	}
	fmt.Fprintf(w, "correct runs: parent %d/%d, change %d/%d; failed operations: parent %d, change %d\n",
		pc, len(pairs), cc, len(pairs), pf, cf)
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func spread(med, q1, q3 float64) string {
	return fmt.Sprintf("%.4g [%.4g-%.4g]", med, q1, q3)
}

// quartiles returns the first quartile, median and third quartile of xs
// by linear interpolation between the closest ranks, as perfbench
// computes its own percentiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
