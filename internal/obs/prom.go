package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-exposition export over the typed registry, plus an
// in-process promtool-style lint of the format. The exporter is shared:
// sdserve renders its service counters and per-run aggregates with
// PromWriter, and sdobs -prom converts any saved metrics dump offline
// with WritePrometheus. CheckExposition gates both in CI, so a
// malformed metric name or an ungrouped family fails before any real
// scraper ever sees it.

// PromName sanitizes s into a legal Prometheus metric-name fragment:
// every character outside [a-zA-Z0-9_:] becomes '_', and a leading
// digit is prefixed with '_'.
func PromName(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value per the exposition format: backslash,
// double quote, and newline.
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// Label is one label pair on a sample.
type Label struct{ Name, Value string }

// PromWriter renders the Prometheus text exposition format. Families
// must be written contiguously (all samples of one metric before the
// next); Type records the family header once per family.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Type emits the # TYPE header for a family ("counter", "gauge",
// "histogram"), with an optional # HELP line when help is non-empty.
func (p *PromWriter) Type(name, typ, help string) {
	if p.err != nil {
		return
	}
	if help != "" {
		_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n", name, help)
		if p.err != nil {
			return
		}
	}
	_, p.err = fmt.Fprintf(p.w, "# TYPE %s %s\n", name, typ)
}

// Sample emits one sample line. Labels render in the given order.
func (p *PromWriter) Sample(name string, labels []Label, value float64) {
	if p.err != nil {
		return
	}
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `%s="%s"`, l.Name, promEscape(l.Value))
		}
		b.WriteByte('}')
	}
	_, p.err = fmt.Fprintf(p.w, "%s %s\n", b.String(), formatPromValue(value))
}

// Histo emits a full cumulative histogram family (name_bucket with le
// labels ending at +Inf, name_sum, name_count) from per-bucket counts
// where bucket i covers values [i*width, (i+1)*width) and the last
// bucket catches overflow.
func (p *PromWriter) Histo(name string, labels []Label, width uint64, buckets []uint64, sum, count uint64) {
	var cum uint64
	for i, n := range buckets {
		cum += n
		le := "+Inf"
		if i < len(buckets)-1 {
			le = strconv.FormatUint(uint64(i+1)*width, 10)
		}
		p.Sample(name+"_bucket", append(append([]Label(nil), labels...), Label{"le", le}), float64(cum))
	}
	p.Sample(name+"_sum", labels, float64(sum))
	p.Sample(name+"_count", labels, float64(count))
}

// Err reports the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func formatPromValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders a metrics dump in the Prometheus text
// exposition format: per-unit cycles, stall-cause attribution,
// registered counters, cycle-bucketed histograms, and
// per-kind stream bytes. Metric names carry the sd_ prefix; the unit
// index is a label, so cluster dumps stay one family per metric.
func WritePrometheus(w io.Writer, d Dump) error {
	p := NewPromWriter(w)

	unitLabel := func(u UnitDump) Label { return Label{"unit", strconv.Itoa(u.Unit)} }

	p.Type("sd_unit_cycles", "gauge", "simulated cycles per unit")
	for _, u := range d.Units {
		p.Sample("sd_unit_cycles", []Label{unitLabel(u)}, float64(u.Cycles))
	}

	p.Type("sd_stall_cycles_total", "counter", "per-component stall-cause attribution (sums to elapsed cycles)")
	for _, u := range d.Units {
		for _, c := range u.Components {
			names := make([]string, 0, len(c.Causes))
			for k := range c.Causes {
				names = append(names, k)
			}
			sort.Strings(names)
			for _, cause := range names {
				p.Sample("sd_stall_cycles_total",
					[]Label{unitLabel(u), {"component", c.Name}, {"cause", cause}},
					float64(c.Causes[cause]))
			}
		}
	}

	// Registered counters, one family per name across units.
	for _, name := range counterNames(d) {
		fam := "sd_" + PromName(name) + "_total"
		p.Type(fam, "counter", "")
		for _, u := range d.Units {
			if v, ok := u.Counters[name]; ok {
				p.Sample(fam, []Label{unitLabel(u)}, float64(v))
			}
		}
	}

	histNames := map[string]bool{}
	var histOrder []string
	for _, u := range d.Units {
		for _, h := range u.Histograms {
			if !histNames[h.Name] {
				histNames[h.Name] = true
				histOrder = append(histOrder, h.Name)
			}
		}
	}
	for _, name := range histOrder {
		fam := "sd_" + PromName(name) + "_cycles"
		p.Type(fam, "histogram", "cycle-bucketed histogram")
		for _, u := range d.Units {
			for _, h := range u.Histograms {
				if h.Name == name {
					p.Histo(fam, []Label{unitLabel(u)}, h.Width, h.Buckets, h.Sum, h.Count)
				}
			}
		}
	}

	p.Type("sd_stream_bytes_total", "counter", "bytes moved per stream kind")
	for _, u := range d.Units {
		agg := map[string]uint64{}
		var kinds []string
		for _, s := range u.Streams {
			if _, ok := agg[s.Kind]; !ok {
				kinds = append(kinds, s.Kind)
			}
			agg[s.Kind] += s.Bytes
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			p.Sample("sd_stream_bytes_total", []Label{unitLabel(u), {"kind", k}}, float64(agg[k]))
		}
	}
	return p.Err()
}

// counterNames gathers the union of counter names across units, sorted.
func counterNames(d Dump) []string {
	seen := map[string]bool{}
	var names []string
	for _, u := range d.Units {
		for k := range u.Counters {
			if !seen[k] {
				seen[k] = true
				names = append(names, k)
			}
		}
	}
	sort.Strings(names)
	return names
}

var (
	promMetricRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// CheckExposition is the in-process promtool-style lint: it parses a
// text-exposition payload and rejects malformed metric or label names,
// unparseable values, unknown TYPE declarations, families whose samples
// are not contiguous, re-declared families, histograms without a +Inf
// bucket, and non-monotone cumulative bucket counts. A nil return means
// a real Prometheus scraper would ingest the payload.
func CheckExposition(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("exposition: empty payload")
	}
	if data[len(data)-1] != '\n' {
		return fmt.Errorf("exposition: payload does not end with a newline")
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	closedFamilies := map[string]bool{} // families whose sample block ended
	declared := map[string]string{}     // family -> declared type
	current := ""                       // family currently emitting samples
	type histState struct {
		sawInf    bool // family saw at least one +Inf bucket
		seriesInf bool // current label series saw its +Inf bucket
		lastCum   float64
		lastKey   string // label fingerprint sans le, to reset monotonicity per series
	}
	hists := map[string]*histState{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "TYPE" && fields[1] != "HELP") {
				return fmt.Errorf("exposition line %d: malformed comment %q", lineNo, line)
			}
			name := fields[2]
			if !promMetricRe.MatchString(name) {
				return fmt.Errorf("exposition line %d: invalid metric name %q", lineNo, name)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("exposition line %d: TYPE without a type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("exposition line %d: unknown type %q", lineNo, fields[3])
				}
				if _, dup := declared[name]; dup {
					return fmt.Errorf("exposition line %d: family %s declared twice", lineNo, name)
				}
				declared[name] = fields[3]
			}
			continue
		}

		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("exposition line %d: %w", lineNo, err)
		}
		family := promFamily(name, declared)
		if family != current {
			if current != "" {
				closedFamilies[current] = true
			}
			if closedFamilies[family] {
				return fmt.Errorf("exposition line %d: family %s samples are not contiguous", lineNo, family)
			}
			current = family
		}
		if declared[family] == "histogram" {
			h := hists[family]
			if h == nil {
				h = &histState{}
				hists[family] = h
			}
			if strings.HasSuffix(name, "_bucket") {
				le, series := "", make([]string, 0, len(labels))
				for _, l := range labels {
					if l.Name == "le" {
						le = l.Value
					} else {
						series = append(series, l.Name+"="+l.Value)
					}
				}
				if le == "" {
					return fmt.Errorf("exposition line %d: %s_bucket without le label", lineNo, family)
				}
				key := strings.Join(series, ",")
				if key != h.lastKey {
					if h.lastKey != "" && !h.seriesInf {
						return fmt.Errorf("exposition line %d: %s bucket series {%s} ended without a +Inf bucket",
							lineNo, family, h.lastKey)
					}
					h.lastKey, h.lastCum, h.seriesInf = key, 0, false
				}
				if value < h.lastCum {
					return fmt.Errorf("exposition line %d: %s cumulative bucket counts decrease", lineNo, family)
				}
				h.lastCum = value
				if le == "+Inf" {
					h.sawInf, h.seriesInf = true, true
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("exposition: %w", err)
	}
	for fam, typ := range declared {
		if typ == "histogram" {
			h := hists[fam]
			if h == nil || !h.sawInf {
				return fmt.Errorf("exposition: histogram %s has no +Inf bucket", fam)
			}
			if !h.seriesInf {
				return fmt.Errorf("exposition: histogram %s bucket series {%s} ended without a +Inf bucket",
					fam, h.lastKey)
			}
		}
	}
	return nil
}

// promFamily maps a sample name to its family: histogram component
// suffixes collapse onto the declared histogram family.
func promFamily(name string, declared map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && declared[base] == "histogram" {
			return base
		}
	}
	return name
}

// parsePromSample parses `name{l1="v1",...} value` (labels optional).
func parsePromSample(line string) (string, []Label, float64, error) {
	rest := line
	nameEnd := strings.IndexAny(rest, "{ ")
	if nameEnd <= 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name := rest[:nameEnd]
	if !promMetricRe.MatchString(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[nameEnd:]
	var labels []Label
	if rest[0] == '{' {
		close := -1
		inQuote := false
		for i := 1; i < len(rest); i++ {
			switch {
			case inQuote && rest[i] == '\\':
				i++
			case rest[i] == '"':
				inQuote = !inQuote
			case !inQuote && rest[i] == '}':
				close = i
			}
			if close >= 0 {
				break
			}
		}
		if close < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		var err error
		labels, err = parsePromLabels(rest[1:close])
		if err != nil {
			return "", nil, 0, err
		}
		rest = rest[close+1:]
	}
	rest = strings.TrimLeft(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("malformed value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		switch fields[0] {
		case "+Inf", "-Inf", "NaN":
			v = 0
		default:
			return "", nil, 0, fmt.Errorf("unparseable value %q", fields[0])
		}
	}
	if len(fields) == 2 {
		if _, terr := strconv.ParseInt(fields[1], 10, 64); terr != nil {
			return "", nil, 0, fmt.Errorf("unparseable timestamp %q", fields[1])
		}
	}
	return name, labels, v, nil
}

func parsePromLabels(s string) ([]Label, error) {
	var labels []Label
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("malformed label in %q", s)
		}
		name := s[:eq]
		if !promLabelRe.MatchString(name) {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("label %s value is not quoted", name)
		}
		var val strings.Builder
		i := 1
		for ; i < len(s); i++ {
			if s[i] == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Errorf("dangling escape in label %s", name)
				}
				switch s[i+1] {
				case '\\', '"':
					val.WriteByte(s[i+1])
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("invalid escape \\%c in label %s", s[i+1], name)
				}
				i++
				continue
			}
			if s[i] == '"' {
				break
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated value for label %s", name)
		}
		labels = append(labels, Label{name, val.String()})
		s = s[i+1:]
		if len(s) > 0 {
			if s[0] != ',' {
				return nil, fmt.Errorf("expected ',' between labels, got %q", s)
			}
			s = s[1:]
		}
	}
	return labels, nil
}
