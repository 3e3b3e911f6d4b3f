// Package serve turns the simulator into a hardened network service:
// bounded-concurrency simulation-as-a-service with admission control,
// per-request deadlines layered on the cycle watchdog, content-
// addressed result caching with singleflight dedup, panic isolation,
// and graceful drain.
//
// The degradation ladder is explicit. A healthy server simulates; a
// busy server queues; a full server sheds with 429 + Retry-After
// (never an unbounded goroutine pile-up); a draining server rejects
// new work with 503 while finishing what it accepted.
package serve

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel cancellation causes. They flow through context.Cause into
// core.CanceledError.Err, where classify maps them back to API kinds.
var (
	errDeadline   = errors.New("serve: request wall-clock budget exhausted")
	errDraining   = errors.New("serve: server draining")
	errClientGone = errors.New("serve: every waiting client disconnected")
)

// Options sizes the service. Zero values take the defaults noted on
// each field.
type Options struct {
	Workers        int           // simulation worker pool size (default: GOMAXPROCS)
	QueueDepth     int           // admission queue bound (default: 2×Workers)
	MaxBodyBytes   int64         // request body cap (default: 8 MiB)
	DefaultTimeout time.Duration // per-request wall budget when unspecified (default: 30s)
	MaxTimeout     time.Duration // ceiling on client-requested budgets (default: 2m)
	CacheEntries   int           // result cache capacity (default: 256; negative disables)
	DrainGrace     time.Duration // how long Drain lets in-flight runs finish (default: 10s)
	RetryAfter     time.Duration // hint attached to 429/503 (default: 1s)

	ProgressEvery time.Duration // heartbeat interval for progress events (default: 250ms; negative = every stride)
	EnablePprof   bool          // mount net/http/pprof under /debug/pprof/
	Logger        *slog.Logger  // structured request log sink (default: discard)
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 2 * o.Workers
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout == 0 {
		o.MaxTimeout = 2 * time.Minute
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 256
	}
	if o.DrainGrace == 0 {
		o.DrainGrace = 10 * time.Second
	}
	if o.RetryAfter == 0 {
		o.RetryAfter = time.Second
	}
	switch {
	case o.ProgressEvery == 0:
		o.ProgressEvery = 250 * time.Millisecond
	case o.ProgressEvery < 0:
		o.ProgressEvery = 0 // every heartbeat stride
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Counters is a snapshot of the service counters, published at
// /statusz and asserted by the soak test.
type Counters struct {
	Accepted  uint64 `json:"accepted"`   // admitted into the queue
	Completed uint64 `json:"completed"`  // finished with a 200
	Failed    uint64 `json:"failed"`     // finished with a typed failure
	Shed      uint64 `json:"shed"`       // 429: queue full
	Rejected  uint64 `json:"rejected"`   // 503: draining
	CacheHits uint64 `json:"cache_hits"` // served from the result cache
	Deduped   uint64 `json:"deduped"`    // joined an identical in-flight run
	Canceled  uint64 `json:"canceled"`   // flights canceled before completing
	Panics    uint64 `json:"panics"`     // panics contained by worker isolation
}

// Server is the simulation service. Create with New, mount as an
// http.Handler, and call Drain on shutdown.
type Server struct {
	opts    Options
	cache   *cache
	flights *flightGroup
	queue   chan *flight
	mux     *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	wg         sync.WaitGroup

	drainMu  sync.RWMutex
	draining bool

	logger  *slog.Logger
	metrics *serverMetrics

	runSeq      atomic.Uint64 // run ID allocator
	workersBusy atomic.Int64  // workers executing right now

	accepted, completed, failed   atomic.Uint64
	shed, rejected                atomic.Uint64
	cacheHits, dedupWaits         atomic.Uint64
	canceledRuns, panicsContained atomic.Uint64
}

// New builds the server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		cache:   newCache(opts.CacheEntries),
		flights: newFlightGroup(),
		queue:   make(chan *flight, opts.QueueDepth),
		mux:     http.NewServeMux(),
		logger:  opts.Logger,
		metrics: newServerMetrics(),
	}
	s.baseCtx, s.baseCancel = context.WithCancelCause(context.Background())
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statusz", s.handleStatusz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opts.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// reqInfo is the per-request telemetry record the middleware threads
// through the handler: the request ID every log line carries, and the
// run ID / error kind handlers fill in as the request resolves.
type reqInfo struct {
	id    string
	runID string
	kind  ErrKind
}

type reqInfoKey struct{}

// reqInfoFrom returns the request's telemetry record, or nil for a
// request that did not pass through the middleware (direct handler
// calls in tests).
func reqInfoFrom(ctx context.Context) *reqInfo {
	info, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return info
}

// statusWriter captures the response status for the request log and
// forwards Flush so SSE streaming survives the wrapping.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestID accepts a sane client-supplied X-Request-Id or mints one.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" && len(id) <= 64 && !strings.ContainsAny(id, " \t\r\n\"") {
		return id
	}
	var b [8]byte
	_, _ = crand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// routeLabel buckets a request path onto its route pattern, so the
// latency histograms keep bounded cardinality.
func routeLabel(r *http.Request) string {
	path := r.URL.Path
	switch {
	case path == "/v1/run":
		return "/v1/run"
	case strings.HasPrefix(path, "/v1/runs/"):
		return "/v1/runs/{id}/events"
	case path == "/healthz", path == "/readyz", path == "/statusz", path == "/metrics":
		return path
	case strings.HasPrefix(path, "/debug/pprof/"):
		return "/debug/pprof/"
	}
	return "other"
}

// ServeHTTP wraps every request in the telemetry middleware: a request
// ID (accepted or minted), response-status capture, per-route latency
// observation, and one structured log line joinable to the run it
// produced. Every 429, 499, 504, and contained panic is attributable.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	info := &reqInfo{id: requestID(r)}
	r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, info))
	sw := &statusWriter{ResponseWriter: w}
	sw.Header().Set("X-Request-Id", info.id)

	s.mux.ServeHTTP(sw, r)

	status := sw.status
	if status == 0 {
		// Nothing was written: the handler detached because the client
		// disconnected mid-wait. 499 is the conventional status for it.
		status = 499
		if r.Context().Err() == nil {
			status = http.StatusOK
		}
	}
	dur := time.Since(start)
	s.metrics.observe(routeLabel(r), dur)

	lvl := slog.LevelInfo
	switch {
	case status >= 500:
		lvl = slog.LevelError
	case status >= 400:
		lvl = slog.LevelWarn
	}
	attrs := []any{
		"method", r.Method,
		"path", r.URL.Path,
		"status", status,
		"dur_ms", float64(dur.Microseconds()) / 1e3,
		"req_id", info.id,
	}
	if info.runID != "" {
		attrs = append(attrs, "run_id", info.runID)
	}
	if info.kind != "" {
		attrs = append(attrs, "kind", string(info.kind))
	}
	s.logger.Log(r.Context(), lvl, "request", attrs...)
}

// Counters returns a snapshot of the service counters.
func (s *Server) Counters() Counters {
	return Counters{
		Accepted:  s.accepted.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
		Shed:      s.shed.Load(),
		Rejected:  s.rejected.Load(),
		CacheHits: s.cacheHits.Load(),
		Deduped:   s.dedupWaits.Load(),
		Canceled:  s.canceledRuns.Load(),
		Panics:    s.panicsContained.Load(),
	}
}

// Drain performs graceful shutdown: stop admitting, let in-flight and
// queued runs finish within the grace window, then cancel whatever is
// left and wait for the workers to exit. It is safe to call once.
func (s *Server) Drain() {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if already {
		return
	}
	// No admission can race this close: enqueue holds drainMu.RLock and
	// re-checks the flag before sending.
	close(s.queue)
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.opts.DrainGrace):
		s.baseCancel(errDraining)
		<-done
	}
	s.baseCancel(errDraining) // release the base context in the prompt path too
}

// enqueue admits a flight or reports why it cannot: draining (503) or
// queue full (429). The read lock orders admission against Drain's
// close of the queue, so there is never a send on a closed channel.
func (s *Server) enqueue(f *flight) *apiError {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		s.rejected.Add(1)
		return &apiError{Status: 503, Kind: KindDraining, Msg: "server is draining; retry against another instance"}
	}
	select {
	case s.queue <- f:
		s.accepted.Add(1)
		return nil
	default:
		s.shed.Add(1)
		return &apiError{Status: 429, Kind: KindOverload,
			Msg: fmt.Sprintf("admission queue full (%d queued, %d workers)", s.opts.QueueDepth, s.opts.Workers)}
	}
}

// worker executes queued flights until the queue closes. Each run is
// panic-isolated: a fault in one request becomes that request's 500,
// never the process's crash.
func (s *Server) worker() {
	defer s.wg.Done()
	for f := range s.queue {
		s.runFlight(f)
	}
}

func (s *Server) runFlight(f *flight) {
	defer func() {
		if r := recover(); r != nil {
			s.panicsContained.Add(1)
			s.logger.Error("panic contained",
				"run_id", f.id, "req_id", f.reqID, "panic", fmt.Sprint(r))
			s.flights.forget(f)
			f.finish(nil, &apiError{Status: 500, Kind: KindPanic,
				Msg: fmt.Sprintf("panic: %v\n%s", r, debug.Stack())})
		}
	}()
	if f.ctx.Err() != nil {
		// Canceled while queued: deadline passed, all waiters left, or
		// the drain grace expired. Don't burn a worker on it.
		cause := context.Cause(f.ctx)
		ae := &apiError{Status: 499, Kind: KindCanceled, Msg: fmt.Sprintf("canceled while queued: %v", cause)}
		switch {
		case errors.Is(cause, errDeadline):
			ae = &apiError{Status: 504, Kind: KindDeadline, Msg: "wall-clock budget exhausted while queued"}
		case errors.Is(cause, errDraining):
			ae = &apiError{Status: 503, Kind: KindDraining, Msg: "server draining; queued run canceled"}
		}
		s.finishFlight(f, nil, ae)
		return
	}
	s.workersBusy.Add(1)
	defer s.workersBusy.Add(-1)
	f.startedNS.Store(time.Now().UnixNano())
	f.events.publish(eventStarted, startedEvent{
		RunID:       f.id,
		QueueWaitMS: float64(time.Since(f.submitted).Microseconds()) / 1e3,
	})
	resp, aerr := s.execute(f.ctx, f)
	s.finishFlight(f, resp, aerr)
}

// refuse retires a flight the admission queue would not take. A
// request that deduplicated onto it in the meantime gets the same
// refusal instead of waiting on a flight that never runs.
func (s *Server) refuse(f *flight, aerr *apiError) {
	s.flights.forget(f)
	f.finish(nil, aerr)
}

// finishFlight publishes an outcome: cache deterministic results,
// retire the singleflight entry, bump counters, wake the waiters. The
// counters move before the wake-up, so a client that reads Counters or
// /statusz after its response sees its own run counted.
func (s *Server) finishFlight(f *flight, resp *Response, aerr *apiError) {
	if cacheable(aerr) && !f.req.bypassCache {
		s.cache.put(f.key, resp, aerr)
	}
	s.flights.forget(f)
	switch {
	case aerr == nil:
		s.completed.Add(1)
	case aerr.Kind == KindCanceled || aerr.Kind == KindDeadline || aerr.Kind == KindDraining:
		s.canceledRuns.Add(1)
	default:
		s.failed.Add(1)
	}
	f.finish(resp, aerr)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	stream := wantsStream(r)
	body, rerr := readBody(w, r, s.opts.MaxBodyBytes)
	if rerr != nil {
		s.writeError(w, r, rerr)
		return
	}
	rr, aerr := s.decodeRequest(body)
	if aerr != nil {
		s.writeError(w, r, aerr)
		return
	}
	key, kerr := rr.cacheKey()
	if kerr != nil {
		s.writeError(w, r, &apiError{Status: 400, Kind: KindInvalid, Msg: kerr.Error()})
		return
	}

	if !rr.bypassCache {
		if resp, cerr, ok := s.cache.get(key); ok {
			s.cacheHits.Add(1)
			if stream {
				s.streamCached(w, resp, cerr)
				return
			}
			if cerr != nil {
				s.writeError(w, r, cerr)
				return
			}
			out := *resp
			out.Cached = true
			s.writeJSON(w, http.StatusOK, &out)
			return
		}
	}

	fctx, fcancel := context.WithCancelCause(s.baseCtx)
	now := time.Now()
	fresh := &flight{
		key:       key,
		id:        fmt.Sprintf("r%06d", s.runSeq.Add(1)),
		req:       rr,
		reqID:     requestIDFrom(r),
		submitted: now,
		deadline:  now.Add(rr.timeout),
		ctx:       fctx,
		cancel:    fcancel,
		events:    newEventHub(),
		done:      make(chan struct{}),
	}
	fresh.timer = time.AfterFunc(rr.timeout, func() { fcancel(errDeadline) })

	f := s.flights.join(key, fresh)
	deduped := f != nil
	if deduped {
		s.dedupWaits.Add(1)
		fcancel(nil) // the fresh flight never runs; release its context
		fresh.timer.Stop()
	} else {
		f = fresh
		// The admission event precedes enqueue so no subscriber can ever
		// observe started before queued, however fast a worker picks the
		// flight up.
		f.events.publish(eventQueued, queuedEvent{
			RunID:    f.id,
			Workload: rr.name,
			Scale:    rr.scale,
			Queued:   len(s.queue),
		})
		if qerr := s.enqueue(f); qerr != nil {
			s.refuse(f, qerr)
			s.writeError(w, r, qerr)
			return
		}
	}
	if info := reqInfoFrom(r.Context()); info != nil {
		info.runID = f.id
	}

	if stream {
		s.streamFlight(w, r, f)
		return
	}

	select {
	case <-f.done:
		f.dropWaiter(nil) // flight already finished; bookkeeping only
		if f.err != nil {
			s.writeError(w, r, f.err)
			return
		}
		out := *f.resp
		out.Deduped = deduped
		s.writeJSON(w, http.StatusOK, &out)
	case <-r.Context().Done():
		// This client is gone. Leave the flight to any other waiters;
		// the last one out cancels the simulation itself.
		f.dropWaiter(errClientGone)
		if info := reqInfoFrom(r.Context()); info != nil {
			info.kind = KindCanceled
		}
	}
}

// requestIDFrom recovers the middleware's request ID for joining run
// telemetry to the originating submission's log lines.
func requestIDFrom(r *http.Request) string {
	if info := reqInfoFrom(r.Context()); info != nil {
		return info.id
	}
	return ""
}

func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, *apiError) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, &apiError{Status: http.StatusRequestEntityTooLarge, Kind: KindInvalid,
				Msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return nil, &apiError{Status: 400, Kind: KindInvalid, Msg: err.Error()}
	}
	return body, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	if draining {
		w.Header().Set("Retry-After", retryAfter(s.opts.RetryAfter))
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// runRow is one in-flight run as /statusz reports it.
type runRow struct {
	ID           string  `json:"id"`
	Workload     string  `json:"workload"`
	State        string  `json:"state"` // "queued" or "running"
	Waiters      int     `json:"waiters"`
	Cycle        uint64  `json:"cycle"`
	Commands     uint64  `json:"commands"`
	RetiredBytes uint64  `json:"retired_bytes"`
	QueueWaitMS  float64 `json:"queue_wait_ms"`
	RunningMS    float64 `json:"running_ms"`
	DeadlineMS   float64 `json:"deadline_remaining_ms"`
}

// liveRuns snapshots the in-flight runs, sorted by run ID.
func (s *Server) liveRuns() []runRow {
	now := time.Now()
	flights := s.flights.live()
	sort.Slice(flights, func(i, j int) bool { return flights[i].id < flights[j].id })

	rows := make([]runRow, 0, len(flights))
	for _, f := range flights {
		row := runRow{
			ID:         f.id,
			Workload:   f.req.name,
			State:      "queued",
			Waiters:    f.waiterCount(),
			DeadlineMS: float64(f.deadline.Sub(now).Microseconds()) / 1e3,
		}
		if started, ok := f.started(); ok {
			row.State = "running"
			row.QueueWaitMS = float64(started.Sub(f.submitted).Microseconds()) / 1e3
			row.RunningMS = float64(now.Sub(started).Microseconds()) / 1e3
		} else {
			row.QueueWaitMS = float64(now.Sub(f.submitted).Microseconds()) / 1e3
		}
		if pr := f.progress.Load(); pr != nil {
			row.Cycle = pr.Cycle
			row.Commands = pr.Commands
			row.RetiredBytes = pr.RetiredBytes
		}
		rows = append(rows, row)
	}
	return rows
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	type status struct {
		Counters Counters `json:"counters"`
		Queue    int      `json:"queue_len"`
		Workers  int      `json:"workers"`
		Busy     int      `json:"workers_busy"`
		Cache    int      `json:"cache_entries"`
		Runs     []runRow `json:"runs"`
	}
	s.writeJSON(w, http.StatusOK, status{
		Counters: s.Counters(),
		Queue:    len(s.queue),
		Workers:  s.opts.Workers,
		Busy:     int(s.workersBusy.Load()),
		Cache:    s.cache.len(),
		Runs:     s.liveRuns(),
	})
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, e *apiError) {
	if r != nil {
		if info := reqInfoFrom(r.Context()); info != nil {
			info.kind = e.Kind
		}
	}
	if e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfter(s.opts.RetryAfter))
	}
	s.writeJSON(w, e.Status, errBody(e))
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client hung up; nothing useful to do
}

func retryAfter(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
