package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"softbrain/internal/core"
	"softbrain/internal/isa"
	"softbrain/internal/obs"
	"softbrain/internal/progen"
	"softbrain/internal/wire"
)

// digitRe collapses every number so transcripts with host-dependent
// values (latencies, seeds) normalize to a stable form.
var digitRe = regexp.MustCompile(`[0-9]+(\.[0-9]+)?`)

func normalizeEvents(evs []Event) string {
	var b strings.Builder
	for _, ev := range evs {
		fmt.Fprintf(&b, "event: %s\ndata: %s\n\n", ev.Type, digitRe.ReplaceAllString(string(ev.Data), "N"))
	}
	return b.String()
}

// TestStreamContract pins the event schema: the exact sequence of
// types and the exact (number-normalized) payload shape of each frame.
// A field rename, reorder, or dropped frame breaks this test — which
// is the point: clients parse these bytes.
func TestStreamContract(t *testing.T) {
	_, _, cl := newTestServer(t, Options{Workers: 1, ProgressEvery: -1})
	out, err := cl.SubmitStream(context.Background(), Request{Workload: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	// bfs at scale 1 steps fewer cycles than a heartbeat stride, so the
	// lifecycle is exactly queued -> started -> result.
	const want = `event: queued
data: {"run_id":"rN","workload":"bfs","scale":N,"queue_depth":N}

event: started
data: {"run_id":"rN","queue_wait_ms":N}

event: result
data: {"name":"bfs","units":N,"cycles":N,"verified":true,"cached":false,"stats":{"Cycles":N,"CoreInstrs":N,"CoreStallCycles":N,"Commands":N,"BarrierCycles":N,"ResourceStall":N,"Instances":N,"FUOps":N,"MemBytesRead":N,"MemBytesWritten":N,"MemLines":N,"CacheHits":N,"CacheMisses":N,"ScratchBytesRead":N,"ScratchBytesWrit":N,"RecurrenceBytes":N,"MSEBusy":N,"SSEBusy":N,"RSEBusy":N},"sim_ms":N}

`
	if got := normalizeEvents(out.Events); got != want {
		t.Errorf("normalized stream transcript changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if out.RunID == "" {
		t.Error("X-Run-Id header missing from the stream response")
	}
}

// TestStreamProgressFrames requires a long-enough run to emit progress
// frames, in order, with monotone cycle counts and retired-byte deltas
// consistent with the totals.
func TestStreamProgressFrames(t *testing.T) {
	_, _, cl := newTestServer(t, Options{Workers: 1, ProgressEvery: -1})
	out, err := cl.SubmitStream(context.Background(), Request{Workload: "gemm", Scale: 4})
	if err != nil {
		t.Fatal(err)
	}
	if out.Progress < 2 {
		t.Fatalf("gemm scale 4 emitted %d progress frames, want >= 2", out.Progress)
	}
	var lastCycle, lastRetired uint64
	seq := 0
	for _, ev := range out.Events {
		seq++
		if ev.Seq != seq {
			t.Fatalf("event %d has seq %d", seq, ev.Seq)
		}
		if ev.Type != eventProgress {
			continue
		}
		var p progressEvent
		if err := json.Unmarshal(ev.Data, &p); err != nil {
			t.Fatal(err)
		}
		if p.Cycle <= lastCycle {
			t.Fatalf("progress cycles not monotone: %d after %d", p.Cycle, lastCycle)
		}
		if p.RetiredBytes < lastRetired {
			t.Fatalf("retired bytes decreased: %d after %d", p.RetiredBytes, lastRetired)
		}
		if p.RetiredDelta != p.RetiredBytes-lastRetired {
			t.Fatalf("retired delta %d, want %d", p.RetiredDelta, p.RetiredBytes-lastRetired)
		}
		lastCycle, lastRetired = p.Cycle, p.RetiredBytes
	}
	if out.Resp == nil || !out.Resp.Verified {
		t.Fatalf("terminal response: %+v", out.Resp)
	}
}

// TestStreamMatchesUnary requires the streamed terminal payload to be
// byte-identical to the compacted unary response body for the same
// cached submission.
func TestStreamMatchesUnary(t *testing.T) {
	_, hs, cl := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()
	if _, err := cl.Submit(ctx, Request{Workload: "fft"}); err != nil {
		t.Fatal(err)
	}

	resp, err := hs.Client().Post(hs.URL+"/v1/run", "application/json", strings.NewReader(`{"workload":"fft"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Fatal(err)
	}

	out, err := cl.SubmitStream(ctx, Request{Workload: "fft"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Events) != 1 || out.Events[0].Type != eventResult {
		t.Fatalf("cached stream events: %s", normalizeEvents(out.Events))
	}
	if !bytes.Equal(bytes.TrimSpace(compact.Bytes()), []byte(out.Events[0].Data)) {
		t.Fatalf("terminal event != compacted unary body:\nunary:  %s\nstream: %s",
			compact.Bytes(), out.Events[0].Data)
	}
}

// starvedProgramRequest builds a raw submission that deadlocks
// deterministically: one dataflow operand stream is short.
func starvedProgramRequest(t *testing.T) Request {
	t.Helper()
	cfg := core.DefaultConfig()
	p, ports, err := progen.Addpair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Emit(isa.MemPort{Src: isa.Linear(0x1000, 16), Dst: ports.A})
	p.Emit(isa.MemPort{Src: isa.Linear(0x2000, 8), Dst: ports.B})
	p.Emit(isa.CleanPort{Src: ports.C, Elem: isa.Elem64, Count: 2})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	wp, err := wire.FromProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	return Request{Program: &wp, Config: &wire.Config{WatchdogCycles: 20000}}
}

// TestStreamError delivers a deterministic failure in-band: the stream
// terminates with an error event carrying the same typed envelope the
// unary path would, and the client surfaces it as the same *apiError.
func TestStreamError(t *testing.T) {
	_, _, cl := newTestServer(t, Options{Workers: 1})
	out, err := cl.SubmitStream(context.Background(), starvedProgramRequest(t))
	var ae *apiError
	if !errors.As(err, &ae) || ae.Kind != KindDeadlock {
		t.Fatalf("want deadlock error, got %v", err)
	}
	last := out.Events[len(out.Events)-1]
	if last.Type != eventError {
		t.Fatalf("terminal event %s, want error", last.Type)
	}
	var eb ErrorBody
	if err := json.Unmarshal(last.Data, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Kind != KindDeadlock || eb.Error.Retryable {
		t.Fatalf("error envelope: %+v", eb)
	}
}

// TestStreamDisconnectDetaches drops the SSE connection after the
// first progress frame. The server must detach the waiter, cancel the
// simulation (last waiter out), and retire the flight — with no
// goroutine left behind.
func TestStreamDisconnectDetaches(t *testing.T) {
	s, hs, _ := newTestServer(t, Options{Workers: 1, ProgressEvery: -1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/run?stream=1",
		strings.NewReader(`{"workload":"viterbi","scale":8}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read frames until the first progress event, then hang up.
	sc := bufio.NewScanner(resp.Body)
	sawProgress := false
	for sc.Scan() && !sawProgress {
		if strings.HasPrefix(sc.Text(), "event: progress") {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Fatal("stream ended before any progress event")
	}
	cancel()

	deadline := time.After(10 * time.Second)
	for s.Counters().Canceled == 0 {
		select {
		case <-deadline:
			t.Fatalf("run never canceled after client disconnect: %+v", s.Counters())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if c := s.Counters(); c.Completed != 0 {
		t.Fatalf("disconnected run completed anyway: %+v", c)
	}
	for len(s.flights.live()) != 0 {
		select {
		case <-deadline:
			t.Fatalf("flight not retired after cancel")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestRunsIntrospection holds a run on a gate and requires /statusz to
// report it live: id, workload, running state, and deadline budget.
func TestRunsIntrospection(t *testing.T) {
	release := make(chan struct{})
	testHookExecute = func(*runRequest) { <-release }
	defer func() { testHookExecute = nil }()

	s, hs, cl := newTestServer(t, Options{Workers: 1})
	done := make(chan error, 1)
	go func() {
		_, err := cl.Submit(context.Background(), Request{Workload: "spmv-crs"})
		done <- err
	}()

	var row runRow
	deadline := time.After(10 * time.Second)
	for {
		rows := s.liveRuns()
		if len(rows) == 1 && rows[0].State == "running" {
			row = rows[0]
			break
		}
		select {
		case <-deadline:
			t.Fatalf("run never appeared in /statusz rows: %+v", rows)
		case <-time.After(2 * time.Millisecond):
		}
	}
	if row.Workload != "spmv-crs" || row.ID == "" || row.Waiters != 1 {
		t.Fatalf("run row: %+v", row)
	}
	if row.DeadlineMS <= 0 {
		t.Fatalf("deadline remaining %v, want > 0", row.DeadlineMS)
	}

	// The wire view agrees with the internal snapshot.
	body, err := rawGet(context.Background(), hs.URL+"/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Runs []runRow `json:"runs"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Runs) != 1 || st.Runs[0].ID != row.ID {
		t.Fatalf("/statusz runs: %+v", st.Runs)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rows := s.liveRuns(); len(rows) != 0 {
		t.Fatalf("completed run still introspectable: %+v", rows)
	}
}

// TestRunEventsAttach joins an in-flight run read-only via
// /v1/runs/{id}/events: full history replay, then live events through
// the terminal one — without becoming a waiter.
func TestRunEventsAttach(t *testing.T) {
	release := make(chan struct{})
	testHookExecute = func(*runRequest) { <-release }
	defer func() { testHookExecute = nil }()

	s, hs, cl := newTestServer(t, Options{Workers: 1})
	done := make(chan error, 1)
	go func() {
		_, err := cl.Submit(context.Background(), Request{Workload: "md-knn"})
		done <- err
	}()

	deadline := time.After(10 * time.Second)
	var runID string
	for runID == "" {
		if rows := s.liveRuns(); len(rows) == 1 && rows[0].State == "running" {
			runID = rows[0].ID
		}
		select {
		case <-deadline:
			t.Fatal("run never started")
		case <-time.After(2 * time.Millisecond):
		}
	}

	evdone := make(chan []Event, 1)
	go func() {
		resp, err := hs.Client().Get(hs.URL + "/v1/runs/" + runID + "/events")
		if err != nil {
			evdone <- nil
			return
		}
		defer resp.Body.Close()
		var evs []Event
		_ = ReadSSE(resp.Body, func(ev Event) error { evs = append(evs, ev); return nil })
		evdone <- evs
	}()

	time.Sleep(20 * time.Millisecond) // let the observer attach and replay
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	evs := <-evdone
	var types []string
	for _, ev := range evs {
		types = append(types, ev.Type)
	}
	joined := strings.Join(types, " ")
	if len(evs) < 3 || types[0] != eventQueued || types[1] != eventStarted || types[len(types)-1] != eventResult {
		t.Fatalf("observer transcript: %s", joined)
	}

	// Unknown run IDs reject with a typed 404.
	resp, err := hs.Client().Get(hs.URL + "/v1/runs/zzz/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), string(KindUnknown)) {
		t.Fatalf("unknown run: status %d body %s", resp.StatusCode, body)
	}
}

// TestFaultsOnWire covers the per-request fault block: seeded profiles
// stay deterministic and cacheable, unseeded ones draw a server-side
// seed and bypass the cache, and invalid blocks reject typed.
func TestFaultsOnWire(t *testing.T) {
	s, _, cl := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	seed := int64(7)
	seeded := Request{Workload: "bfs", Faults: &FaultsBlock{Profile: "delay", Seed: &seed}}
	first, err := cl.Submit(ctx, seeded)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.FaultSeed != 0 {
		t.Fatalf("seeded first run: %+v", first)
	}
	second, err := cl.Submit(ctx, seeded)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Cycles != first.Cycles {
		t.Fatalf("seeded resubmission should hit the cache: %+v", second)
	}

	// A fault-free bfs run reaches a different cycle count than the
	// delayed one — the profile actually did something.
	clean, err := cl.Submit(ctx, Request{Workload: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Cycles == first.Cycles {
		t.Fatalf("delay profile had no effect: both %d cycles", clean.Cycles)
	}

	unseeded := Request{Workload: "bfs", Faults: &FaultsBlock{Profile: "delay"}}
	u1, err := cl.Submit(ctx, unseeded)
	if err != nil {
		t.Fatal(err)
	}
	if u1.Cached || u1.FaultSeed == 0 {
		t.Fatalf("unseeded run: %+v", u1)
	}
	u2, err := cl.Submit(ctx, unseeded)
	if err != nil {
		t.Fatal(err)
	}
	if u2.Cached || u2.FaultSeed == 0 || u2.FaultSeed == u1.FaultSeed {
		t.Fatalf("unseeded resubmission must re-draw, not hit the cache: first seed %d, second %+v",
			u1.FaultSeed, u2)
	}
	if c := s.Counters(); c.CacheHits != 1 {
		t.Fatalf("cache hits %d, want exactly the seeded resubmission", c.CacheHits)
	}

	if _, err := cl.Submit(ctx, Request{Workload: "bfs", Faults: &FaultsBlock{Profile: "no-such"}}); !isKind(err, KindInvalid) {
		t.Fatalf("unknown profile: %v", err)
	}
	conflicted := `{"workload":"bfs","faults":{"profile":"delay","seed":1},"config":{"faults":{"profile":"stall"}}}`
	if err := submitRaw(cl, conflicted); !isKind(err, KindInvalid) {
		t.Fatalf("conflicting fault blocks: %v", err)
	}
}

func isKind(err error, kind ErrKind) bool {
	var ae *apiError
	return errors.As(err, &ae) && ae.Kind == kind
}

func submitRaw(cl *Client, body string) error {
	resp, err := cl.httpClient().Post(cl.BaseURL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	var eb ErrorBody
	if jerr := json.Unmarshal(data, &eb); jerr != nil {
		return jerr
	}
	return &apiError{Status: resp.StatusCode, Kind: eb.Error.Kind, Msg: eb.Error.Message}
}

// syncWriter serializes concurrent slog writes during tests.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestRequestLogJoinable requires every request to produce one
// structured log line carrying the request ID (client-supplied when
// sane) and, for submissions, the run ID — so a 4xx/5xx in the log
// joins to its run and its stream.
func TestRequestLogJoinable(t *testing.T) {
	logw := &syncWriter{}
	logger := slog.New(slog.NewTextHandler(logw, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s, hs, _ := newTestServer(t, Options{Workers: 1, ProgressEvery: -1, Logger: logger})

	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/run", strings.NewReader(`{"workload":"gemm","scale":2}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "join-me-42")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "join-me-42" {
		t.Fatalf("X-Request-Id echoed as %q", got)
	}

	// A typed failure logs at warn with its kind.
	bad, err := hs.Client().Post(hs.URL+"/v1/run", "application/json", strings.NewReader(`{"workload":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bad.Body)
	bad.Body.Close()

	logs := logw.String()
	reqLine := ""
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, "req_id=join-me-42") && strings.Contains(line, "msg=request") {
			reqLine = line
		}
	}
	if reqLine == "" {
		t.Fatalf("no request log line for join-me-42:\n%s", logs)
	}
	for _, want := range []string{"method=POST", "path=/v1/run", "status=200", "run_id=r"} {
		if !strings.Contains(reqLine, want) {
			t.Errorf("request line missing %q: %s", want, reqLine)
		}
	}
	// The run's progress debug lines join on the same request ID.
	if !strings.Contains(logs, `msg="run progress"`) || !strings.Contains(logs, "req_id=join-me-42 cycle=") {
		t.Errorf("progress debug lines not joinable:\n%s", logs)
	}
	if !strings.Contains(logs, "level=WARN") || !strings.Contains(logs, "kind=unknown-workload") {
		t.Errorf("typed failure not logged at warn with its kind:\n%s", logs)
	}
	if s.Counters().Completed != 1 {
		t.Fatalf("counters: %+v", s.Counters())
	}
}

// TestMetricsEndpoint scrapes /metrics after real traffic and holds it
// to the exposition lint plus agreement with the counters.
func TestMetricsEndpoint(t *testing.T) {
	s, hs, cl := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()
	if _, err := cl.Submit(ctx, Request{Workload: "stencil2d", Options: RunOptions{Metrics: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(ctx, Request{Workload: "stencil2d", Options: RunOptions{Metrics: true}}); err != nil {
		t.Fatal(err)
	}

	expo, err := rawGet(ctx, hs.URL+"/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(expo); err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, expo)
	}
	for _, want := range []string{
		"serve_completed_total 1",
		"serve_cache_hits_total 1",
		"serve_run_cycles_total",
		"serve_run_retired_bytes_total",
		"serve_sched_comp_ticks_total",
		`serve_request_duration_seconds_bucket{path="/v1/run",le="+Inf"}`,
		`serve_run_stall_cycles_total{component="dispatch"`,
		"serve_workers 1",
	} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	completed, err := promValue(expo, "serve_completed_total")
	if err != nil {
		t.Fatal(err)
	}
	if uint64(completed) != s.Counters().Completed {
		t.Errorf("serve_completed_total %v != counter %d", completed, s.Counters().Completed)
	}
}

// TestPprofGated requires the profiling endpoints to be absent by
// default and mounted under the opt-in flag.
func TestPprofGated(t *testing.T) {
	_, hs, _ := newTestServer(t, Options{Workers: 1})
	resp, err := hs.Client().Get(hs.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof mounted without the flag: status %d", resp.StatusCode)
	}

	_, hs2, _ := newTestServer(t, Options{Workers: 1, EnablePprof: true})
	resp2, err := hs2.Client().Get(hs2.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof absent with the flag: status %d", resp2.StatusCode)
	}
}
