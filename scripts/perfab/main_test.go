package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// mkPairs builds one pair per index from the parent and change values
// of metric name.
func mkPairs(name string, par, chg []float64, parFailed, chgFailed int) []pair {
	var out []pair
	for i := range par {
		r := func(v float64, failed int) *result {
			res := &result{Correct: true, Failed: failed}
			res.Metrics = map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			}{name: {Value: v}}
			return res
		}
		out = append(out, pair{seed: fmt.Sprint(1001 + i), parent: r(par[i], parFailed), change: r(chg[i], chgFailed)})
	}
	return out
}

// row returns the summary fields of metric name; ops_per_s is better
// when higher, the others when lower.
func row(t *testing.T, pairs []pair, name string) []string {
	t.Helper()
	var b bytes.Buffer
	summarize(&b, pairs, map[string]bool{"ops_per_s": true})
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == name {
			return f
		}
	}
	t.Fatalf("no %s row in\n%s", name, b.String())
	return nil
}

func TestClaimColumn(t *testing.T) {
	parent := []float64{30, 31, 32, 29, 30.5, 31.5, 30, 32, 29.5, 31}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		name                 string
		metric               string
		change               []float64
		parFailed, chgFailed int
		gap, wins, claim     string
	}{
		{"better", "p50_ms", shift(-3), 0, 0, "yes", "10/10", "yes"},
		{"worse", "p50_ms", shift(3), 0, 0, "yes", "0/10", "no"},
		{"tied", "p50_ms", shift(0), 0, 0, "no", "0/10", "no"},
		{"better but failing more", "p50_ms", shift(-3), 0, 1, "yes", "10/10", "no"},
		{"better in 8 of 10", "p50_ms", append(shift(-3)[:8], 40, 40), 0, 0, "yes", "8/10", "no"},
		{"higher is better", "ops_per_s", shift(3), 0, 0, "yes", "10/10", "yes"},
		{"lower when higher is better", "ops_per_s", shift(-3), 0, 0, "yes", "0/10", "no"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := row(t, mkPairs(tc.metric, parent, tc.change, tc.parFailed, tc.chgFailed), tc.metric)
			gap, wins, claim := f[len(f)-3], f[len(f)-2], f[len(f)-1]
			if gap != tc.gap || wins != tc.wins || claim != tc.claim {
				t.Errorf("gap>IQR %s, wins %s, claim %s; want %s, %s, %s", gap, wins, claim, tc.gap, tc.wins, tc.claim)
			}
		})
	}
}
