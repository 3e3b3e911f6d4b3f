package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// ComponentDump is one component's stall-cause account in a dump.
// Causes is keyed by taxonomy name so JSON marshaling (sorted map
// keys) is deterministic.
type ComponentDump struct {
	Name    string            `json:"name"`
	Elapsed uint64            `json:"elapsed"`
	Causes  map[string]uint64 `json:"causes"`
}

// HistogramDump is one histogram's state in a dump.
type HistogramDump struct {
	Name    string   `json:"name"`
	Width   uint64   `json:"width"`
	Buckets []uint64 `json:"buckets"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
}

// BarrierDrainDump is one barrier's drain cost in a dump: the cycles
// the barrier at trace position Pos held the dispatch queue head
// waiting for in-flight streams. This is the per-barrier refinement of
// the dispatcher's barrier-drain attribution (which additionally
// counts SD_Config quiesce cycles), and the profile format consumed by
// the fix pass's cost-aware placement (internal/fix.Profile).
type BarrierDrainDump struct {
	Pos    int    `json:"pos"`
	Kind   string `json:"kind"`
	Cycles uint64 `json:"cycles"`
}

// UnitDump is one unit's full metrics: the simulated cycle count, each
// component's attribution, registered scalar metrics, per-stream data
// movement, and per-barrier drain costs.
type UnitDump struct {
	Unit          int                `json:"unit"`
	Cycles        uint64             `json:"cycles"`
	Components    []ComponentDump    `json:"components"`
	Counters      map[string]uint64  `json:"counters,omitempty"`
	Histograms    []HistogramDump    `json:"histograms,omitempty"`
	Streams       []StreamBW         `json:"streams,omitempty"`
	BarrierDrains []BarrierDrainDump `json:"barrier_drains,omitempty"`
}

// Dump is the machine-level metrics dump: per-unit sections plus a
// cross-unit total (components summed by name, streams concatenated).
type Dump struct {
	Units []UnitDump `json:"units"`
	Total UnitDump   `json:"total"`
}

// SetCycles records the unit's total simulated cycle count, the
// denominator of the conservation invariant.
func (r *Registry) SetCycles(c uint64) {
	if r != nil {
		r.cycles = c
	}
}

// Dump snapshots the registry. Component order is registration order;
// map-backed sections are deterministic via sorted JSON keys.
func (r *Registry) Dump() UnitDump {
	d := UnitDump{Unit: r.Unit()}
	if r == nil {
		return d
	}
	d.Cycles = r.cycles
	for _, a := range r.attrs {
		cd := ComponentDump{Name: a.name, Elapsed: a.Elapsed(), Causes: map[string]uint64{}}
		for c, n := range a.causes {
			if n != 0 {
				cd.Causes[Cause(c).String()] = n
			}
		}
		d.Components = append(d.Components, cd)
	}
	if len(r.counters) > 0 {
		d.Counters = map[string]uint64{}
		for _, c := range r.counters {
			d.Counters[c.name] = c.v
		}
	}
	for _, h := range r.hists {
		d.Histograms = append(d.Histograms, HistogramDump{
			Name: h.name, Width: h.width,
			Buckets: append([]uint64(nil), h.buckets...),
			Count:   h.count, Sum: h.sum, Max: h.max,
		})
	}
	d.Streams = r.Streams()
	d.BarrierDrains = append([]BarrierDrainDump(nil), r.barriers...)
	return d
}

// Merge combines per-unit dumps (in the given order — callers pass
// unit order, keeping cluster dumps deterministic) into one Dump with
// a cross-unit total section.
func Merge(units []UnitDump) Dump {
	d := Dump{Units: units, Total: UnitDump{Unit: -1}}
	comp := map[string]*ComponentDump{}
	var order []string
	for _, u := range units {
		if u.Cycles > d.Total.Cycles {
			d.Total.Cycles = u.Cycles
		}
		for _, c := range u.Components {
			t, ok := comp[c.Name]
			if !ok {
				t = &ComponentDump{Name: c.Name, Causes: map[string]uint64{}}
				comp[c.Name] = t
				order = append(order, c.Name)
			}
			t.Elapsed += c.Elapsed
			for k, v := range c.Causes {
				t.Causes[k] += v
			}
		}
		for k, v := range u.Counters {
			if d.Total.Counters == nil {
				d.Total.Counters = map[string]uint64{}
			}
			d.Total.Counters[k] += v
		}
		d.Total.Streams = append(d.Total.Streams, u.Streams...)
		// BarrierDrains stay per-unit: positions index each unit's own
		// trace, so a cross-unit total would conflate programs.
	}
	for _, name := range order {
		d.Total.Components = append(d.Total.Components, *comp[name])
	}
	return d
}

// MarshalIndent renders the dump as deterministic, human-diffable
// JSON (map keys sort; slice order is registration/unit order).
func (d Dump) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// CheckConservation enforces the hard invariant: every component's
// cause counts sum exactly to its unit's elapsed cycles. A violation
// means a classification path dropped or double-counted a cycle.
func CheckConservation(d Dump) error {
	for _, u := range d.Units {
		for _, c := range u.Components {
			var sum uint64
			for _, v := range c.Causes {
				sum += v
			}
			if sum != c.Elapsed {
				return fmt.Errorf("unit %d %s: causes sum to %d, elapsed %d", u.Unit, c.Name, sum, c.Elapsed)
			}
			if c.Elapsed != u.Cycles {
				return fmt.Errorf("unit %d %s: elapsed %d != unit cycles %d", u.Unit, c.Name, c.Elapsed, u.Cycles)
			}
		}
	}
	return nil
}

// BandwidthTable renders the Figure-14-style bandwidth report: data
// moved per stream kind, bytes per cycle, and for memory-facing kinds
// that rate as a share of the DRAM line rate (pass mem.SysConfig line
// bytes / miss interval). Stream bytes include cache hits, so the share
// is not a DRAM utilization and can exceed 100%.
func BandwidthTable(d Dump, lineRate float64) string {
	type row struct {
		kind    string
		streams int
		bytes   uint64
	}
	agg := map[string]*row{}
	var order []string
	for _, s := range d.Total.Streams {
		r, ok := agg[s.Kind]
		if !ok {
			r = &row{kind: s.Kind}
			agg[s.Kind] = r
			order = append(order, s.Kind)
		}
		r.streams++
		r.bytes += s.Bytes
	}
	sort.Strings(order)
	cycles := d.Total.Cycles
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %14s %10s %8s\n", "kind", "streams", "bytes", "B/cycle", "%dram")
	var memBytes uint64
	for _, k := range order {
		r := agg[k]
		bpc := 0.0
		if cycles > 0 {
			bpc = float64(r.bytes) / float64(cycles)
		}
		pk := "-"
		if MemKind(k) && lineRate > 0 {
			memBytes += r.bytes
			pk = fmt.Sprintf("%.1f%%", 100*bpc/lineRate)
		}
		fmt.Fprintf(&b, "%-14s %8d %14d %10.2f %8s\n", r.kind, r.streams, r.bytes, bpc, pk)
	}
	if lineRate > 0 && cycles > 0 {
		share := 100 * float64(memBytes) / float64(cycles) / lineRate
		fmt.Fprintf(&b, "memory streams: %d bytes over %d cycles = %.2f B/cycle (%.1f%% of the %.0f B/cycle DRAM line rate)\n",
			memBytes, cycles, float64(memBytes)/float64(cycles), share, lineRate)
	}
	return b.String()
}

// MemKind reports whether a stream kind moves data through the memory
// system (counts toward DRAM bandwidth) rather than scratchpad or
// port-to-port recurrence.
func MemKind(k string) bool {
	switch k {
	case "SD_Mem_Port", "SD_Port_Mem", "SD_Mem_Scratch", "SD_IndPort_Port", "SD_IndPort_Mem", "SD_Config":
		return true
	}
	return false
}
