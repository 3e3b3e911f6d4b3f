package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
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

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s := New(opts)
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		s.Drain()
	})
	return s, hs, &Client{BaseURL: hs.URL, HTTP: hs.Client()}
}

func TestRunAndCacheHit(t *testing.T) {
	s, _, cl := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	first, err := cl.Submit(ctx, Request{Workload: "gemm"})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || !first.Verified || first.Cycles == 0 {
		t.Fatalf("first run: %+v", first)
	}
	second, err := cl.Submit(ctx, Request{Workload: "gemm"})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatalf("resubmission missed the cache: %+v", second)
	}
	if second.Cycles != first.Cycles {
		t.Fatalf("cached cycles %d != original %d", second.Cycles, first.Cycles)
	}
	if c := s.Counters(); c.CacheHits != 1 || c.Completed != 1 {
		t.Fatalf("counters: %+v", c)
	}

	// A different scale is different content: must miss.
	third, err := cl.Submit(ctx, Request{Workload: "gemm", Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("scale=2 submission hit the scale=1 cache entry")
	}
}

// TestWarmRuns checks the warm option on both request shapes: a warm
// named run with metrics reports a dump that conserves against the warm
// run's cycles, and a raw program honours warm (its cache-warm run is
// faster than its cold one).
func TestWarmRuns(t *testing.T) {
	_, _, cl := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	named, err := cl.Submit(ctx, Request{Workload: "gemm", Scale: 2, Options: RunOptions{Warm: true, Metrics: true}})
	if err != nil {
		t.Fatal(err)
	}
	var dump obs.Dump
	if err := json.Unmarshal(named.Metrics, &dump); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckConservation(dump); err != nil || dump.Total.Cycles != named.Cycles {
		t.Fatalf("warm dump over %d cycles for a %d-cycle run: %v", dump.Total.Cycles, named.Cycles, err)
	}

	cfg := core.DefaultConfig()
	p, ports, err := progen.Addpair(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Emit(isa.MemPort{Src: isa.Linear(0x1000, 512), Dst: ports.A})
	p.Emit(isa.MemPort{Src: isa.Linear(0x2000, 512), Dst: ports.B})
	p.Emit(isa.PortMem{Src: ports.C, Dst: isa.Linear(0x3000, 512)})
	p.Emit(isa.BarrierAll{})
	wp, err := wire.FromProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := cl.Submit(ctx, Request{Program: &wp})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cl.Submit(ctx, Request{Program: &wp, Options: RunOptions{Warm: true}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cycles >= cold.Cycles || warm.Stats.CacheMisses != 0 {
		t.Fatalf("raw warm run: %d cycles, %d misses; cold %d cycles", warm.Cycles, warm.Stats.CacheMisses, cold.Cycles)
	}
}

// TestSingleflightDedup stalls the first execution so identical
// concurrent submissions must join it rather than simulate again.
func TestSingleflightDedup(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	testHookExecute = func(*runRequest) {
		started <- struct{}{}
		<-release
	}
	defer func() { testHookExecute = nil }()

	s, _, cl := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	const waiters = 3
	var wg sync.WaitGroup
	results := make([]*Response, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cl.Submit(ctx, Request{Workload: "gemm"})
		}(i)
	}
	<-started // exactly one execution may start
	for {
		if s.Counters().Deduped == waiters-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	var deduped int
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if results[i].Deduped {
			deduped++
		}
	}
	if deduped != waiters-1 {
		t.Fatalf("deduped = %d, want %d", deduped, waiters-1)
	}
	select {
	case <-started:
		t.Fatal("a second execution started for identical content")
	default:
	}
	if c := s.Counters(); c.Accepted != 1 || c.Deduped != waiters-1 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestAdmissionShed fills the worker pool and queue, then requires an
// overflow request, unary or streamed, to be shed with 429 +
// Retry-After, immediately — never queued unboundedly, never hung.
func TestAdmissionShed(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(release) }) }
	testHookExecute = func(*runRequest) { <-release }
	defer func() { testHookExecute = nil }()
	defer releaseAll()

	s, _, cl := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	ctx := context.Background()

	// Distinct content keys so nothing dedups: scales 1 and 2 occupy the
	// worker and the queue slot.
	occupy := []Request{{Workload: "gemm", Scale: 1}, {Workload: "gemm", Scale: 2}}
	var wg sync.WaitGroup
	for _, req := range occupy {
		wg.Add(1)
		go func(req Request) {
			defer wg.Done()
			cl.Submit(ctx, req)
		}(req)
	}
	for s.Counters().Accepted != 2 {
		time.Sleep(time.Millisecond)
	}

	// A unary and a streamed overflow each meet the same typed
	// rejection; the streamed one gets it before any stream starts.
	overflow := []struct {
		name   string
		submit func(Request) error
	}{
		{"unary", func(req Request) error { _, err := cl.Submit(ctx, req); return err }},
		{"streamed", func(req Request) error { _, err := cl.SubmitStream(ctx, req); return err }},
	}
	for i, o := range overflow {
		start := time.Now()
		err := o.submit(Request{Workload: "gemm", Scale: 3})
		var ae *apiError
		if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests || ae.Kind != KindOverload {
			t.Fatalf("%s overflow submission: err = %v, want 429 overloaded", o.name, err)
		}
		if !ae.Kind.Retryable() {
			t.Fatalf("%s: overload not marked retryable", o.name)
		}
		if ae.RetryAfter <= 0 {
			t.Fatalf("%s: 429 carried no Retry-After", o.name)
		}
		if waited := time.Since(start); waited > 2*time.Second {
			t.Fatalf("%s: shed request took %v; shedding must be immediate", o.name, waited)
		}
		if c := s.Counters(); c.Shed != uint64(i+1) {
			t.Fatalf("after the %s overflow: counters: %+v", o.name, c)
		}
	}
	releaseAll()
	wg.Wait()
}

// TestDeadline gives a request a tiny wall budget while the hook holds
// its worker, so the simulation starts only after its budget expired —
// and must come back 504, non-retryable.
func TestDeadline(t *testing.T) {
	gate := make(chan struct{})
	testHookExecute = func(*runRequest) { <-gate }
	defer func() { testHookExecute = nil }()

	s, _, cl := newTestServer(t, Options{Workers: 1})
	time.AfterFunc(100*time.Millisecond, func() { close(gate) })

	_, err := cl.Submit(context.Background(), Request{Workload: "gemm", Options: RunOptions{TimeoutMS: 5}})
	var ae *apiError
	if !errors.As(err, &ae) || ae.Kind != KindDeadline || ae.Status != http.StatusGatewayTimeout {
		t.Fatalf("err = %v, want 504 deadline-exceeded", err)
	}
	if ae.Kind.Retryable() {
		t.Fatal("deadline marked retryable")
	}
	if c := s.Counters(); c.Canceled != 1 {
		t.Fatalf("counters: %+v", c)
	}

	// The expired outcome must not have been cached: a fresh submission
	// with the same content simulates and succeeds.
	resp, err := cl.Submit(context.Background(), Request{Workload: "gemm", Options: RunOptions{TimeoutMS: 5}})
	if err != nil {
		t.Fatalf("post-deadline resubmission: %v", err)
	}
	if resp.Cached {
		t.Fatal("deadline outcome was served from the cache")
	}
}

// TestPanicIsolation injects a panic into one request's execution and
// requires it to become that request's 500 while the server keeps
// serving everyone else.
func TestPanicIsolation(t *testing.T) {
	testHookExecute = func(rr *runRequest) {
		if rr.name == "fft" {
			panic("injected fault")
		}
	}
	defer func() { testHookExecute = nil }()

	s, _, cl := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	_, err := cl.Submit(ctx, Request{Workload: "fft"})
	var ae *apiError
	if !errors.As(err, &ae) || ae.Kind != KindPanic || ae.Status != 500 {
		t.Fatalf("err = %v, want 500 internal-panic", err)
	}
	if ae.Kind.Retryable() {
		t.Fatal("panic marked retryable")
	}
	if !strings.Contains(ae.Msg, "injected fault") {
		t.Fatalf("panic message lost: %q", ae.Msg)
	}

	// The worker survived; an untainted workload still runs.
	resp, err := cl.Submit(ctx, Request{Workload: "gemm"})
	if err != nil || !resp.Verified {
		t.Fatalf("post-panic request: resp=%+v err=%v", resp, err)
	}
	if c := s.Counters(); c.Panics != 1 || c.Completed != 1 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestDeterministicFailureCached submits a raw program that starves
// its dataflow (one operand short): the deadlock must come back as a
// typed, non-retryable 422 — and the resubmission must hit the cache
// without burning a worker on the same hang.
func TestDeterministicFailureCached(t *testing.T) {
	s, _, cl := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

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
	req := Request{
		Program: &wp,
		Config:  &wire.Config{WatchdogCycles: 20000},
	}

	_, err = cl.Submit(ctx, req)
	var ae *apiError
	if !errors.As(err, &ae) || ae.Kind != KindDeadlock || ae.Status != 422 {
		t.Fatalf("starved program: err = %v, want 422 deadlock", err)
	}
	if ae.Kind.Retryable() {
		t.Fatal("deadlock marked retryable")
	}

	before := s.Counters().Accepted
	_, err = cl.Submit(ctx, req)
	if !errors.As(err, &ae) || ae.Kind != KindDeadlock {
		t.Fatalf("resubmitted starved program: err = %v, want deadlock", err)
	}
	if after := s.Counters().Accepted; after != before {
		t.Fatalf("deadlock resubmission reached a worker (accepted %d -> %d); want cache hit", before, after)
	}
	if s.Counters().CacheHits == 0 {
		t.Fatal("no cache hit recorded for the cached deadlock")
	}
}

func TestInvalidSubmissions(t *testing.T) {
	_, hs, _ := newTestServer(t, Options{Workers: 1, MaxBodyBytes: 64 << 10})

	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", `{`, 400},
		{"unknown field", `{"workload":"gemm","bogus":1}`, 400},
		{"neither", `{}`, 400},
		{"both", `{"workload":"gemm","program":{"name":"x","trace":[]}}`, 400},
		{"unknown workload", `{"workload":"no-such"}`, 404},
		{"bad scale", `{"workload":"gemm","scale":99}`, 404},
	}
	for _, tc := range cases {
		resp, err := http.Post(hs.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Oversized body: 413, typed, and never reaches a worker.
	big := bytes.Repeat([]byte("x"), 1<<20)
	resp, err := http.Post(hs.URL+"/v1/run", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestDrainUnderLoad races Drain against a stream of submissions: no
// send-on-closed-channel panic, every response is one of 200/429/503,
// and Drain returns with all workers stopped.
func TestDrainUnderLoad(t *testing.T) {
	s, _, cl := newTestServer(t, Options{Workers: 2, QueueDepth: 2, DrainGrace: 5 * time.Second})
	ctx := context.Background()

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := cl.Submit(ctx, Request{Workload: "gemm", Scale: 1 + i%4})
			if err == nil {
				return
			}
			var ae *apiError
			if !errors.As(err, &ae) {
				t.Errorf("request %d: untyped error %v", i, err)
				return
			}
			switch ae.Status {
			case 429, 503:
			default:
				t.Errorf("request %d: status %d (%s)", i, ae.Status, ae.Kind)
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	s.Drain()
	wg.Wait()

	// Post-drain: readyz is unhealthy, fresh work is rejected 503 with a
	// retryable envelope, and cached results still serve.
	_, err := cl.Submit(ctx, Request{Workload: "stencil2d"})
	var ae *apiError
	if !errors.As(err, &ae) || ae.Status != 503 || ae.Kind != KindDraining {
		t.Fatalf("post-drain submission: %v, want 503 draining", err)
	}
	if !ae.Kind.Retryable() {
		t.Fatal("draining not marked retryable")
	}
}

// TestRefusedFlightWakesDedupWaiters: a request that deduplicated onto
// a flight the admission queue then refused (429 or 503) gets the same
// refusal instead of waiting forever on a flight that never runs.
func TestRefusedFlightWakesDedupWaiters(t *testing.T) {
	s, _, _ := newTestServer(t, Options{Workers: 1})
	f := &flight{key: "k", done: make(chan struct{}), cancel: func(error) {}}
	if s.flights.join("k", f) != nil {
		t.Fatal("first submission joined an existing flight")
	}
	if got := s.flights.join("k", &flight{}); got != f {
		t.Fatal("second submission did not deduplicate onto the first")
	}
	refusal := &apiError{Status: 503, Kind: KindDraining}
	s.refuse(f, refusal)
	select {
	case <-f.done:
	default:
		t.Fatal("refused flight never woke its deduplicated waiter")
	}
	if f.err != refusal {
		t.Fatalf("waiter sees %v, want the refusal", f.err)
	}
}

func TestSelfTest(t *testing.T) {
	var buf bytes.Buffer
	if err := SelfTest(&buf); err != nil {
		t.Fatalf("self test failed: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"run gemm", "cache hit", "drain"} {
		if !strings.Contains(buf.String(), "smoke "+want) {
			t.Errorf("self test output missing %q:\n%s", want, buf.String())
		}
	}
}
