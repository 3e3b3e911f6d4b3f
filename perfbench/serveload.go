package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"softbrain/internal/core"
	"softbrain/internal/serve"
	"softbrain/internal/wire"
)

// Request classes of a service mix.
const (
	classHit    = "hit"    // a hot named key, unary: served from the result cache once warm
	classMiss   = "miss"   // a named workload under a never-seen key: decode, compile, queue, run
	classRaw    = "raw"    // a wire-format program (examples/programs), a hot key too
	classStream = "stream" // a hot named key delivered over SSE
)

// clients is the closed-loop client count of a service mix, one per
// core of the 2-core host the benchmark was sized on.
const clients = 2

// missWatchdogBase offsets the watchdog knob of miss requests. The knob
// is part of the service's cache key and never fires at these values,
// so request n gets a never-seen key that simulates exactly like the
// workload's default.
const missWatchdogBase = 1_000_000

// mix is a service workload: the named workloads, which named request n
// takes in turn (named[n%len(named)]), as hot keys and as misses, and
// the wire programs.
type mix struct {
	named []*program
	raw   []*rawProg
}

// programs lists the distinct named programs of the mix.
func (m *mix) programs() []*program {
	seen := map[string]bool{}
	var out []*program
	for _, p := range m.named {
		if !seen[p.key()] {
			seen[p.key()] = true
			out = append(out, p)
		}
	}
	return out
}

// slot is one request of the deck.
type slot struct {
	class   string
	prog    *program
	raw     *rawProg
	metrics bool
	body    []byte // pre-encoded request; nil for misses, whose key varies
}

func (s slot) name() string {
	if s.raw != nil {
		return "raw:" + s.raw.name
	}
	return s.prog.key()
}

// request is the submission for request number n.
func (s slot) request(n int) serve.Request {
	if s.raw != nil {
		wp := s.raw.wp
		req := serve.Request{Program: &wp}
		if s.raw.preset != "" {
			req.Config = &wire.Config{Preset: s.raw.preset}
		}
		return req
	}
	req := serve.Request{Workload: s.prog.name, Scale: s.prog.scale, Options: serve.RunOptions{Metrics: s.metrics}}
	if s.class == classMiss {
		req.Config = &wire.Config{WatchdogCycles: missWatchdogBase + uint64(n)}
	}
	return req
}

// The deck is the fixed 50-request composition every shuffled round of
// the schedule draws. Its deckNamed hot-key requests follow the recorded
// traffic (recordedMix): request n submits named[n%len(named)], and
// every recordedStreamEvery-th is streamed. The record has no misses,
// wire programs or metrics requests, so their shares are assumptions:
// deckRaw raw programs (hits too) and deckMiss misses put cache hits at
// 44/50 = 0.88, the share of requests sent that the record's cache
// served (352/400; there the rest were cancellations, which this mix
// does not send); every metricsEvery-th unary hot request and every
// third miss ask for options.metrics.
const (
	deckNamed    = 40
	deckRaw      = 4
	deckMiss     = 6
	metricsEvery = 10
)

func (m *mix) deck() ([]slot, error) {
	var d []slot
	for n := 0; n < deckNamed; n++ {
		s := slot{class: classHit, prog: m.named[n%len(m.named)]}
		if n%recordedStreamEvery == recordedStreamEvery-1 {
			s.class = classStream
		} else {
			s.metrics = n%metricsEvery == 0
		}
		d = append(d, s)
	}
	for i := 0; i < deckRaw; i++ {
		d = append(d, slot{class: classRaw, raw: m.raw[i%len(m.raw)]})
	}
	for i := 0; i < deckMiss; i++ {
		d = append(d, slot{class: classMiss, prog: m.named[i%len(m.named)], metrics: i%3 == 2})
	}
	for i := range d {
		if d[i].class == classMiss {
			continue
		}
		body, err := json.Marshal(d[i].request(0))
		if err != nil {
			return nil, err
		}
		d[i].body = body
	}
	return d, nil
}

// schedule is the seeded request sequence: request n is drawn from a
// shuffled copy of the deck, so every seed sends the same composition
// in a different order, whatever the timing of the clients.
type schedule struct {
	mu    sync.Mutex
	deck  []slot
	rng   *rand.Rand
	order []int
}

func newSchedule(m *mix, seed int64) (*schedule, error) {
	d, err := m.deck()
	if err != nil {
		return nil, err
	}
	return &schedule{deck: d, rng: rand.New(rand.NewSource(seed))}, nil
}

func (s *schedule) at(n int) slot {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.order) <= n {
		s.order = append(s.order, s.rng.Perm(len(s.deck))...)
	}
	return s.deck[s.order[n]]
}

// service is an in-process server with the repo's default options behind
// a loopback listener, plus the cycle counts its responses must match.
type service struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	refs   map[string]uint64 // slot name -> cycles of the in-process run
}

func startService() *service {
	srv := serve.New(serve.Options{})
	return &service{
		srv:    srv,
		ts:     httptest.NewServer(srv),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		refs:   map[string]uint64{},
	}
}

// close stops the listener (waiting for in-flight requests), then
// drains the server's worker pool.
func (s *service) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Drain()
}

// outcome is one completed request.
type outcome struct {
	slot     slot
	latency  time.Duration   // send to last response byte
	resp     *serve.Response // Stats and Metrics dropped once read
	metrics  int             // bytes of the metrics dump
	progress int             // SSE progress frames
}

// do sends one request and reads its response.
func (s *service) do(ctx context.Context, sl slot, body []byte, reqID string) (outcome, error) {
	o := outcome{slot: sl}
	url := s.ts.URL + "/v1/run"
	if sl.class == classStream {
		url += "?stream=1"
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return o, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Request-Id", reqID)
	if sl.class == classStream {
		hr.Header.Set("Accept", "text/event-stream")
	}
	start := time.Now()
	resp, err := s.client.Do(hr)
	if err != nil {
		return o, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body) // best effort: the status already failed the request
		return o, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var r serve.Response
	if sl.class == classStream {
		var terminal error
		err = serve.ReadSSE(resp.Body, func(ev serve.Event) error {
			switch ev.Type {
			case "progress":
				o.progress++
			case "result":
				return json.Unmarshal(ev.Data, &r)
			case "error":
				terminal = fmt.Errorf("stream error event: %s", ev.Data)
			}
			return nil
		})
		o.latency = time.Since(start)
		if err == nil {
			err = terminal
		}
		if err == nil && r.Name == "" {
			err = fmt.Errorf("stream ended without a result event")
		}
	} else {
		var data []byte
		data, err = io.ReadAll(resp.Body)
		o.latency = time.Since(start)
		if err == nil {
			err = json.Unmarshal(data, &r)
		}
	}
	if err != nil {
		return o, err
	}
	// Keep only the fields the report reads, so the benchmark's own
	// memory does not grow with the run.
	o.metrics = len(r.Metrics)
	r.Stats, r.Metrics, r.Trace = nil, nil, nil
	o.resp = &r
	return o, nil
}

// verify is the service half of the correctness gate: a named
// workload's response must be verified against its golden model, every
// response's cycles must equal the in-process run of the same key, and
// a metrics request must carry its dump.
func (s *service) verify(o outcome) error {
	r := o.resp
	want, ok := s.refs[o.slot.name()]
	if !ok {
		return fmt.Errorf("no reference run for %s", o.slot.name())
	}
	if o.slot.raw == nil && !r.Verified {
		return fmt.Errorf("%s: response not verified", o.slot.name())
	}
	if r.Cycles != want {
		return fmt.Errorf("%s: %d cycles, in-process run %d", o.slot.name(), r.Cycles, want)
	}
	if o.slot.metrics && o.metrics == 0 {
		return fmt.Errorf("%s: metrics requested, none returned", o.slot.name())
	}
	return nil
}

// counters reads the service counters from /statusz.
func (s *service) counters(ctx context.Context) (serve.Counters, error) {
	var st struct {
		Counters serve.Counters `json:"counters"`
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/statusz", nil)
	if err != nil {
		return st.Counters, err
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		return st.Counters, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st.Counters, fmt.Errorf("decoding /statusz: %w", err)
	}
	return st.Counters, nil
}

// runRaw runs a wire program in process on a fresh single unit, as the
// service's raw path does, and returns its cycle count.
func runRaw(ctx context.Context, rp *rawProg) (uint64, error) {
	prog, err := rp.wp.Build()
	if err != nil {
		return 0, err
	}
	cl, err := core.NewCluster(rp.cfg, 1)
	if err != nil {
		return 0, err
	}
	stats, err := cl.RunContext(ctx, []*core.Program{prog})
	if err != nil {
		return 0, fmt.Errorf("raw %s: %w", rp.name, err)
	}
	return stats.Cycles, nil
}

// setupService is one set-up round of a service mix: start the server,
// run every key in process for its reference cycle count, then send one
// untimed warm-up request per hot key so the result cache holds them.
func setupService(ctx context.Context, m *mix, sched *schedule, gate *cycleGate) (*service, error) {
	svc := startService()
	fail := func(err error) (*service, error) {
		svc.close()
		return nil, err
	}
	for _, p := range m.programs() {
		inst, err := p.build()
		if err != nil {
			return fail(fmt.Errorf("building %s: %w", p.key(), err))
		}
		op, err := runOnce(ctx, nil, -1, p, inst, false)
		if err != nil {
			return fail(err)
		}
		if err := gate.check(p.key(), p.golden, op.stats.Cycles); err != nil {
			return fail(err)
		}
		svc.refs[p.key()] = op.stats.Cycles
	}
	for _, rp := range m.raw {
		cycles, err := runRaw(ctx, rp)
		if err != nil {
			return fail(err)
		}
		if err := gate.check("raw:"+rp.name, 0, cycles); err != nil {
			return fail(err)
		}
		svc.refs["raw:"+rp.name] = cycles
	}
	warmed := map[string]bool{}
	for i, sl := range sched.deck {
		k := fmt.Sprintf("%s metrics=%v", sl.name(), sl.metrics)
		if sl.class == classMiss || warmed[k] {
			continue
		}
		warmed[k] = true
		o, err := svc.do(ctx, sl, sl.body, fmt.Sprintf("warm-%d", i))
		if err == nil {
			err = svc.verify(o)
		}
		if err != nil {
			return fail(fmt.Errorf("warm-up %s: %w", sl.name(), err))
		}
	}
	return svc, nil
}

// mixRun is the outcome of a measured service phase, driven in one or
// more segments.
type mixRun struct {
	outcomes      []outcome
	attempted     int // requests sent: the number of the next request
	failures      []string
	wall          time.Duration // summed length of the segments
	before, after serve.Counters
}

// drive runs one segment of the closed loop: clients goroutines, each
// sending its next request only when the previous one completed, until
// dur has elapsed. Request numbers continue from the previous segment;
// the service counters are read before the first segment and after
// each. With a tracer, every request is a top-level span carrying its
// X-Request-Id, so the server's request log lines join it.
func (run *mixRun) drive(ctx context.Context, svc *service, sched *schedule, seed int64, dur time.Duration, tr *tracer) error {
	if run.wall == 0 {
		var err error
		if run.before, err = svc.counters(ctx); err != nil {
			return err
		}
	}
	var next atomic.Int64
	next.Store(int64(run.attempted))
	outs := make([][]outcome, clients)
	fails := make([][]string, clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := int(next.Add(1) - 1)
				sl := sched.at(n)
				body := sl.body
				if body == nil {
					b, err := json.Marshal(sl.request(n))
					if err != nil {
						fails[c] = append(fails[c], err.Error())
						continue
					}
					body = b
				}
				reqID := fmt.Sprintf("pb-%d-%d", seed, n)
				sp := tr.root("serve."+sl.class, int64(n), 1+c, reqID)
				o, err := svc.do(ctx, sl, body, reqID)
				if err == nil {
					err = svc.verify(o)
				}
				tr.end(sp)
				if err != nil {
					fails[c] = append(fails[c], fmt.Sprintf("request %s (%s %s): %v", reqID, sl.class, sl.name(), err))
					continue
				}
				outs[c] = append(outs[c], o)
			}
		}(c)
	}
	wg.Wait()
	run.wall += time.Since(start)
	run.attempted = int(next.Load())
	for c := 0; c < clients; c++ {
		run.outcomes = append(run.outcomes, outs[c]...)
		run.failures = append(run.failures, fails[c]...)
	}
	var err error
	run.after, err = svc.counters(ctx)
	return err
}

// latencies returns the latencies (ms) of the outcomes of one class, or
// of all when class is "".
func (r *mixRun) latencies(class string) []float64 {
	var out []float64
	for _, o := range r.outcomes {
		if class == "" || o.slot.class == class {
			out = append(out, ms(o.latency))
		}
	}
	return out
}

// cached counts responses served from the result cache.
func (r *mixRun) cached() int {
	n := 0
	for _, o := range r.outcomes {
		if o.resp.Cached {
			n++
		}
	}
	return n
}

// missNsPerCycle is the geometric mean over miss workloads of the
// trimmed mean server-side simulation time (Response.sim_ms) per
// simulated cycle.
func (r *mixRun) missNsPerCycle() (float64, []string) {
	by := map[string][]float64{}
	for _, o := range r.outcomes {
		if o.slot.class == classMiss && o.resp.Cycles > 0 {
			by[o.slot.name()] = append(by[o.slot.name()], o.resp.SimMS*1e6/float64(o.resp.Cycles))
		}
	}
	var keys []string
	for k := range by {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var means []float64
	var lines []string
	for _, k := range keys {
		q1, med, q3 := quartiles(by[k])
		tm := trimmedMean(by[k], cycleTrim)
		means = append(means, tm)
		lines = append(lines, fmt.Sprintf("miss %-14s n=%-4d sim ns/cycle q1=%.1f med=%.1f q3=%.1f trimmed mean=%.1f", k, len(by[k]), q1, med, q3, tm))
	}
	return geomean(means), lines
}

// benchServe is the untraced run of the service mix.
func benchServe(ctx context.Context, rep *report, m *mix, seed int64, dur time.Duration) error {
	sched, err := newSchedule(m, seed)
	if err != nil {
		return err
	}
	gate := newCycleGate()
	svc, err := setupService(ctx, m, sched, gate)
	if err != nil {
		return err
	}
	defer svc.close()
	// The closed loop pauses for each interleaved set-up round, which
	// runs on a fresh server of its own.
	rounds := newSetupRounds(dur)
	var run mixRun
	for run.wall < dur {
		if !rounds.due(run.wall) {
			if err := run.drive(ctx, svc, sched, seed, min(dur, rounds.next)-run.wall, nil); err != nil {
				return err
			}
			continue
		}
		var extra *service
		if _, err := rounds.run(run.wall, func() (err error) {
			extra, err = setupService(ctx, m, sched, gate)
			return err
		}); err != nil {
			return fmt.Errorf("set-up round: %w", err)
		}
		extra.close()
	}
	rep.attempted += run.attempted
	for _, f := range run.failures {
		rep.failf("%s", f)
	}

	all := run.latencies("")
	rep.add(timing("setup_s", "s", rounds.secs, 0.5))
	addLatency(rep, [][]float64{all})
	rep.add(ratio("ops_per_s", "1/s", float64(len(all)), run.wall.Seconds(),
		fmt.Sprintf("completed requests / measured seconds, %d closed-loop clients", clients), false))
	gm, lines := run.missNsPerCycle()
	rep.add(metric{name: "ns_per_cycle_gm", unit: "ns/cycle", value: gm, n: len(lines)})
	for _, l := range lines {
		rep.notef("%s", l)
	}
	addServeClasses(rep, &run, false)
	return nil
}

// addServeClasses reports the per-class latencies and the service
// counters; as metrics when asMetrics is set (the traced run), as notes
// otherwise.
func addServeClasses(rep *report, run *mixRun, asMetrics bool) {
	put := func(m metric) {
		if asMetrics {
			rep.add(m)
			return
		}
		line := fmt.Sprintf("%-32s %.4g %s", m.name, m.value, m.unit)
		if m.quart {
			line += fmt.Sprintf(" n=%d q1=%.4g q3=%.4g", m.n, m.q1, m.q3)
		}
		if m.of != "" {
			line += fmt.Sprintf(" = %g / %g (%s)", m.num, m.den, m.of)
		}
		rep.notef("%s", line)
	}
	for _, c := range []string{classHit, classMiss, classRaw, classStream} {
		put(timing("serve."+c+"_p50_ms", "ms", run.latencies(c), 0.5))
	}
	var overhead []float64
	var frames, streams int
	for _, o := range run.outcomes {
		switch o.slot.class {
		case classMiss:
			overhead = append(overhead, ms(o.latency)-o.resp.SimMS)
		case classStream:
			frames += o.progress
			streams++
		}
	}
	put(timing("serve.miss_overhead_ms", "ms", overhead, 0.5))
	put(ratio("serve.hit_ratio", "ratio", float64(run.cached()), float64(len(run.outcomes)),
		"responses served from the result cache / completed requests", true))
	put(metric{name: "serve.dedups", unit: "count", value: float64(run.after.Deduped - run.before.Deduped)})
	put(metric{name: "serve.sheds", unit: "count", value: float64(run.after.Shed - run.before.Shed)})
	put(ratio("serve.progress_frames_per_stream", "frames/stream", float64(frames), float64(streams),
		"SSE progress frames / streamed requests", false))

	by := map[string][]float64{}
	for _, o := range run.outcomes {
		k := fmt.Sprintf("%-6s %s metrics=%v", o.slot.class, o.slot.name(), o.slot.metrics)
		by[k] = append(by[k], ms(o.latency))
	}
	var keys []string
	for k := range by {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		q1, med, q3 := quartiles(by[k])
		rep.notef("%-40s n=%-5d latency ms q1=%.3f med=%.3f q3=%.3f", k, len(by[k]), q1, med, q3)
	}
}

// wireKey is the service's content address of a program: wire.FromProgram,
// the canonical JSON encoding, and SHA-256.
func wireKey(p *core.Program) (wire.Program, [32]byte, error) {
	var sum [32]byte
	wp, err := wire.FromProgram(p)
	if err != nil {
		return wp, sum, err
	}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(wp); err != nil {
		return wp, sum, err
	}
	copy(sum[:], h.Sum(nil))
	return wp, sum, nil
}
