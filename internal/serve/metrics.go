package serve

import (
	"bytes"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"softbrain/internal/obs"
	"softbrain/internal/sim"
)

// GET /metrics: the service's own telemetry in the Prometheus text
// exposition format, rendered with the shared obs.PromWriter so the
// families sdserve exposes live and sdobs -prom converts offline share
// one formatter — and one lint (obs.CheckExposition gates the endpoint
// in the smoke test).
//
// Three layers of state feed the endpoint: the atomic service counters
// (identical numbers to /statusz), point-in-time gauges (queue depth,
// busy workers, in-flight runs, cache entries), and cumulative per-run
// aggregates folded in as each run completes (cycles, retired bytes,
// scheduler counters, stall-cause attribution).

// latBounds are the request-latency bucket upper bounds, in seconds.
var latBounds = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// latHist is one cumulative-style latency histogram (stored as
// per-bucket counts; rendered cumulatively).
type latHist struct {
	buckets [10]uint64 // len(latBounds) + overflow
	sum     float64
	count   uint64
}

func (h *latHist) observe(seconds float64) {
	i := 0
	for i < len(latBounds) && seconds > latBounds[i] {
		i++
	}
	h.buckets[i]++
	h.sum += seconds
	h.count++
}

// serverMetrics accumulates what the atomic counters cannot: per-path
// latency distributions and the per-run simulation aggregates.
type serverMetrics struct {
	mu      sync.Mutex
	latency map[string]*latHist

	runCycles  uint64 // simulated cycles across completed runs
	runRetired uint64 // bytes retired across completed runs
	runSched   sim.SchedStats
	stall      map[string]map[string]uint64 // component -> cause -> cycles
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{
		latency: make(map[string]*latHist),
		stall:   make(map[string]map[string]uint64),
	}
}

// observe records one served request's latency under its route pattern.
func (m *serverMetrics) observe(path string, d time.Duration) {
	m.mu.Lock()
	h := m.latency[path]
	if h == nil {
		h = &latHist{}
		m.latency[path] = h
	}
	h.observe(d.Seconds())
	m.mu.Unlock()
}

// addRun folds one completed simulation into the cumulative aggregates.
func (m *serverMetrics) addRun(cycles, retiredBytes uint64, sched sim.SchedStats) {
	m.mu.Lock()
	m.runCycles += cycles
	m.runRetired += retiredBytes
	m.runSched.Add(sched)
	m.mu.Unlock()
}

// addStalls folds a completed run's stall-cause attribution (available
// when the run had metrics enabled) into the component×cause totals.
func (m *serverMetrics) addStalls(d obs.Dump) {
	m.mu.Lock()
	for _, u := range d.Units {
		for _, c := range u.Components {
			byCause := m.stall[c.Name]
			if byCause == nil {
				byCause = make(map[string]uint64)
				m.stall[c.Name] = byCause
			}
			for cause, n := range c.Causes {
				byCause[cause] += n
			}
		}
	}
	m.mu.Unlock()
}

// handleMetrics renders the exposition. The payload is built in memory
// first so a slow scraper never holds the metrics lock.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	s.writeMetrics(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) writeMetrics(buf *bytes.Buffer) {
	p := obs.NewPromWriter(buf)
	c := s.Counters()

	// Service counters: the same snapshot /statusz publishes.
	for _, cc := range []struct {
		name, help string
		v          uint64
	}{
		{"serve_accepted_total", "requests admitted into the worker queue", c.Accepted},
		{"serve_completed_total", "runs finished with a 200", c.Completed},
		{"serve_failed_total", "runs finished with a typed failure", c.Failed},
		{"serve_shed_total", "submissions shed with 429 (queue full)", c.Shed},
		{"serve_rejected_total", "submissions rejected with 503 (draining)", c.Rejected},
		{"serve_cache_hits_total", "submissions served from the result cache", c.CacheHits},
		{"serve_deduped_total", "submissions that joined an identical in-flight run", c.Deduped},
		{"serve_canceled_total", "flights canceled before completing", c.Canceled},
		{"serve_panics_total", "panics contained by worker isolation", c.Panics},
	} {
		p.Type(cc.name, "counter", cc.help)
		p.Sample(cc.name, nil, float64(cc.v))
	}

	// Point-in-time gauges.
	for _, g := range []struct {
		name, help string
		v          float64
	}{
		{"serve_queue_depth", "submissions waiting in the admission queue", float64(len(s.queue))},
		{"serve_queue_capacity", "admission queue bound", float64(s.opts.QueueDepth)},
		{"serve_workers", "simulation worker pool size", float64(s.opts.Workers)},
		{"serve_workers_busy", "workers currently executing a run", float64(s.workersBusy.Load())},
		{"serve_inflight_runs", "runs queued or executing right now", float64(s.inflightRuns())},
		{"serve_cache_entries", "entries in the result cache", float64(s.cache.len())},
	} {
		p.Type(g.name, "gauge", g.help)
		p.Sample(g.name, nil, g.v)
	}

	s.metrics.mu.Lock()
	defer s.metrics.mu.Unlock()

	// Per-route request latency.
	if len(s.metrics.latency) > 0 {
		paths := make([]string, 0, len(s.metrics.latency))
		for path := range s.metrics.latency {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		p.Type("serve_request_duration_seconds", "histogram", "request latency per route")
		for _, path := range paths {
			h := s.metrics.latency[path]
			var cum uint64
			for i, n := range h.buckets {
				cum += n
				le := "+Inf"
				if i < len(latBounds) {
					le = strconv.FormatFloat(latBounds[i], 'g', -1, 64)
				}
				p.Sample("serve_request_duration_seconds_bucket",
					[]obs.Label{{Name: "path", Value: path}, {Name: "le", Value: le}}, float64(cum))
			}
			p.Sample("serve_request_duration_seconds_sum", []obs.Label{{Name: "path", Value: path}}, h.sum)
			p.Sample("serve_request_duration_seconds_count", []obs.Label{{Name: "path", Value: path}}, float64(h.count))
		}
	}

	// Cumulative per-run simulation aggregates.
	p.Type("serve_run_cycles_total", "counter", "simulated cycles across completed runs")
	p.Sample("serve_run_cycles_total", nil, float64(s.metrics.runCycles))
	p.Type("serve_run_retired_bytes_total", "counter", "stream bytes retired across completed runs")
	p.Sample("serve_run_retired_bytes_total", nil, float64(s.metrics.runRetired))

	sched := s.metrics.runSched
	for _, sc := range []struct {
		name, help string
		v          uint64
	}{
		{"serve_sched_cycles_total", "unit-cycles stepped (not jumped)", sched.Cycles},
		{"serve_sched_comp_ticks_total", "component ticks executed", sched.CompTicks},
		{"serve_sched_comp_sleeps_total", "component-cycles slept during stepped cycles", sched.CompSleeps},
		{"serve_sched_sig_wakes_total", "wakes caused by a raised watched signal", sched.SigWakes},
		{"serve_sched_jumps_total", "per-unit frozen jumps taken", sched.Jumps},
		{"serve_sched_skipped_cycles_total", "unit-cycles elided by frozen jumps", sched.Skipped},
	} {
		p.Type(sc.name, "counter", sc.help)
		p.Sample(sc.name, nil, float64(sc.v))
	}

	// Stall-cause attribution from runs that had metrics enabled.
	if len(s.metrics.stall) > 0 {
		comps := make([]string, 0, len(s.metrics.stall))
		for comp := range s.metrics.stall {
			comps = append(comps, comp)
		}
		sort.Strings(comps)
		p.Type("serve_run_stall_cycles_total", "counter", "stall-cause attribution across metrics-enabled runs")
		for _, comp := range comps {
			byCause := s.metrics.stall[comp]
			causes := make([]string, 0, len(byCause))
			for cause := range byCause {
				causes = append(causes, cause)
			}
			sort.Strings(causes)
			for _, cause := range causes {
				p.Sample("serve_run_stall_cycles_total",
					[]obs.Label{{Name: "component", Value: comp}, {Name: "cause", Value: cause}},
					float64(byCause[cause]))
			}
		}
	}
}
