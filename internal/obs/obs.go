package obs

import "sort"

// Counter is a monotone event count. The nil Counter swallows updates,
// so callers hold a possibly-nil pointer and never branch on enablement.
type Counter struct {
	name string
	v    uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Set overwrites the count. Components that keep their own monotone
// counters snapshot them into the registry at collection time; Set is
// idempotent where repeated Adds would double-count.
func (c *Counter) Set(v uint64) {
	if c != nil {
		c.v = v
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram is a cycle-bucketed histogram: observation v lands in
// bucket v/width, with the last bucket catching overflow. The nil
// Histogram swallows observations.
type Histogram struct {
	name    string
	width   uint64
	buckets []uint64

	count, sum, max uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	b := int(v / h.width)
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count is the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Slice is one run of consecutive cycles a component spent under a
// single cause, for the Perfetto export.
type Slice struct {
	Cause Cause  `json:"cause"`
	Start uint64 `json:"start"`
	End   uint64 `json:"end"` // exclusive
}

// Attribution is one component's stall-cause account. Exactly one cause
// is recorded per elapsed cycle (Account's contract), so the per-cause
// counts always sum to Elapsed.
type Attribution struct {
	name   string
	causes [NumCauses]uint64

	// Slice run-length encoding for the trace export. Recording stops
	// (truncated=true) once sliceCap is reached; counts are unaffected.
	slices    []Slice
	sliceCap  int
	cur       Cause
	curStart  uint64
	lastEnd   uint64
	started   bool
	truncated bool
}

// Name identifies the component ("mse", "dispatch", ...).
func (a *Attribution) Name() string { return a.name }

// Account attributes cycles [from, to) to cause. Callers must cover
// every elapsed cycle exactly once; spans must be non-overlapping and
// non-decreasing in time (the per-cycle classify and skip-replay paths
// both satisfy this by construction).
func (a *Attribution) Account(cause Cause, from, to uint64) {
	if a == nil || to <= from {
		return
	}
	a.causes[cause] += to - from
	a.lastEnd = to
	if a.sliceCap == 0 {
		return
	}
	switch {
	case !a.started:
		a.cur, a.curStart, a.started = cause, from, true
	case cause != a.cur:
		a.emit(Slice{Cause: a.cur, Start: a.curStart, End: from})
		a.cur, a.curStart = cause, from
	}
}

// Finish tops the account up to end with Idle cycles. A unit that
// retires before the rest of its cluster stops being stepped; the
// trailing cycles are idle by definition, and accounting them here
// keeps the conservation invariant against the cluster-wide cycle
// count. Safe to call when already complete (no-op).
func (a *Attribution) Finish(end uint64) {
	if a == nil {
		return
	}
	if a.lastEnd < end {
		a.Account(CauseIdle, a.lastEnd, end)
	}
}

// emit appends a closed slice, honoring the cap.
func (a *Attribution) emit(s Slice) {
	if len(a.slices) >= a.sliceCap {
		a.truncated = true
		return
	}
	a.slices = append(a.slices, s)
}

// Causes returns the per-cause cycle counts in taxonomy order.
func (a *Attribution) Causes() [NumCauses]uint64 {
	if a == nil {
		return [NumCauses]uint64{}
	}
	return a.causes
}

// Elapsed is the total number of cycles accounted.
func (a *Attribution) Elapsed() uint64 {
	if a == nil {
		return 0
	}
	var n uint64
	for _, c := range a.causes {
		n += c
	}
	return n
}

// Slices returns the closed cause runs plus the still-open run (closed
// at the last accounted cycle), and whether recording was truncated.
func (a *Attribution) Slices() ([]Slice, bool) {
	if a == nil {
		return nil, false
	}
	out := a.slices
	if a.started && a.lastEnd > a.curStart && len(out) < a.sliceCap {
		out = append(out[:len(out):len(out)], Slice{Cause: a.cur, Start: a.curStart, End: a.lastEnd})
	}
	return out, a.truncated
}

// StreamBW is one completed stream command's data movement, the row
// unit of the Figure-14-style bandwidth table.
type StreamBW struct {
	ID    int    `json:"id"`
	Kind  string `json:"kind"`
	Bytes uint64 `json:"bytes"`
}

// Options parameterizes a Registry.
type Options struct {
	// Slices caps the recorded stall slices per component. A positive
	// cap makes the run traced: the registry records stall slices and
	// stream lifetimes, which the Perfetto export (WriteTrace) and the
	// text timeline (Gantt) render. 0 records neither (counts are always
	// kept); DefaultSlices is a sensible cap for traced runs.
	Slices int
}

// DefaultSlices bounds per-component slice memory for traced runs.
const DefaultSlices = 1 << 16

// Registry is one unit's metrics: component attributions plus the
// typed metrics its components registered. Registration order is
// preserved; dumps are deterministic.
type Registry struct {
	unit   int
	cycles uint64

	attrs    []*Attribution
	counters []*Counter
	hists    []*Histogram
	streams  []StreamBW
	barriers []BarrierDrainDump
	life     *Lifetimes // nil unless traced (opts.Slices > 0)

	opts Options
}

// New builds an empty registry for the given unit index.
func New(unit int, opts Options) *Registry {
	r := &Registry{unit: unit, opts: opts}
	if opts.Slices > 0 {
		r.life = &Lifetimes{index: map[int]int{}}
	}
	return r
}

// Reset zeroes every registered metric in place for a new run on the
// same unit: components keep the metrics they registered, and the next
// dump covers that run alone.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.cycles = 0
	for _, a := range r.attrs {
		*a = Attribution{name: a.name, sliceCap: a.sliceCap}
	}
	for _, c := range r.counters {
		c.v = 0
	}
	for _, h := range r.hists {
		clear(h.buckets)
		h.count, h.sum, h.max = 0, 0, 0
	}
	r.streams, r.barriers = nil, nil
	if r.life != nil {
		r.life.spans = nil
		clear(r.life.index)
	}
}

// Unit is the unit index the registry was built for.
func (r *Registry) Unit() int {
	if r == nil {
		return 0
	}
	return r.unit
}

// Lifetimes returns the stream-lifetime recorder of a traced registry,
// nil otherwise (and for a nil registry).
func (r *Registry) Lifetimes() *Lifetimes {
	if r == nil {
		return nil
	}
	return r.life
}

// Attribution registers (or returns the existing) per-component
// stall-cause account named name. Nil registries return nil, which
// Account treats as a no-op.
func (r *Registry) Attribution(name string) *Attribution {
	if r == nil {
		return nil
	}
	for _, a := range r.attrs {
		if a.name == name {
			return a
		}
	}
	a := &Attribution{name: name, sliceCap: r.opts.Slices}
	r.attrs = append(r.attrs, a)
	return a
}

// Attributions returns the registered accounts in registration order.
func (r *Registry) Attributions() []*Attribution {
	if r == nil {
		return nil
	}
	return r.attrs
}

// Counter registers (or returns the existing) counter named name.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	for _, c := range r.counters {
		if c.name == name {
			return c
		}
	}
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	return c
}

// Histogram registers (or returns the existing) cycle-bucketed
// histogram named name with the given bucket width and count.
func (r *Registry) Histogram(name string, width uint64, buckets int) *Histogram {
	if r == nil {
		return nil
	}
	for _, h := range r.hists {
		if h.name == name {
			return h
		}
	}
	if width == 0 {
		width = 1
	}
	if buckets < 1 {
		buckets = 1
	}
	h := &Histogram{name: name, width: width, buckets: make([]uint64, buckets)}
	r.hists = append(r.hists, h)
	return h
}

// Stream records one completed stream command's total data movement.
func (r *Registry) Stream(id int, kind string, bytes uint64) {
	if r == nil {
		return
	}
	r.streams = append(r.streams, StreamBW{ID: id, Kind: kind, Bytes: bytes})
}

// SetBarrierDrains replaces the per-barrier drain section (cycles each
// barrier held the dispatch queue head, keyed by trace position).
// Callers pass rows in ascending position order so dumps stay
// deterministic; replacement keeps repeated stats collection
// idempotent, matching Counter.Set.
func (r *Registry) SetBarrierDrains(ds []BarrierDrainDump) {
	if r == nil {
		return
	}
	r.barriers = append(r.barriers[:0], ds...)
}

// Streams returns the recorded stream rows sorted by stream ID.
func (r *Registry) Streams() []StreamBW {
	if r == nil {
		return nil
	}
	out := append([]StreamBW(nil), r.streams...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
