package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"softbrain/internal/obs"
	"softbrain/internal/wire"
)

// SelfTest is the in-process end-to-end smoke the check.sh gate runs:
// start a real server on a loopback port, submit gemm, resubmit and
// require a cache hit, stream a run and require progress events, as
// many stepping every cycle as under the default scheduler, before a
// terminal result byte-identical to the unary body, scrape /metrics
// through the exposition lint, reject an invalid body with a typed
// error, then drain and require /readyz to flip unhealthy and
// in-flight work to finish. It returns nil only if every step behaved.
func SelfTest(w io.Writer) error {
	// ProgressEvery < 0 fires a progress frame at every heartbeat stride,
	// so even a fast smoke workload emits several.
	s := New(Options{Workers: 2, QueueDepth: 4, DrainGrace: 10 * time.Second, ProgressEvery: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	cl := &Client{BaseURL: base}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	step := func(name string, f func() error) error {
		if err := f(); err != nil {
			return fmt.Errorf("smoke %s: %w", name, err)
		}
		fmt.Fprintf(w, "smoke %-14s ok\n", name)
		return nil
	}

	if err := step("healthz", func() error {
		return expectStatus(ctx, base+"/healthz", http.StatusOK)
	}); err != nil {
		return err
	}
	if err := step("readyz", func() error {
		return expectStatus(ctx, base+"/readyz", http.StatusOK)
	}); err != nil {
		return err
	}
	var first *Response
	if err := step("run gemm", func() error {
		resp, _, err := cl.SubmitRetry(ctx, Request{Workload: "gemm"})
		if err != nil {
			return err
		}
		if !resp.Verified {
			return fmt.Errorf("gemm not verified against golden model")
		}
		if resp.Cached {
			return fmt.Errorf("first run reported cached")
		}
		first = resp
		return nil
	}); err != nil {
		return err
	}
	if err := step("cache hit", func() error {
		resp, _, err := cl.SubmitRetry(ctx, Request{Workload: "gemm"})
		if err != nil {
			return err
		}
		if !resp.Cached {
			return fmt.Errorf("resubmission missed the cache")
		}
		if resp.Cycles != first.Cycles {
			return fmt.Errorf("cached cycles %d != first run %d", resp.Cycles, first.Cycles)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := step("stream run", func() error {
		// Fresh submission (distinct scale) over SSE: the lifecycle must
		// arrive in order with at least one progress frame before the
		// terminal result.
		out, err := cl.SubmitStream(ctx, Request{Workload: "gemm", Scale: 4})
		if err != nil {
			return err
		}
		if out.Progress < 1 {
			return fmt.Errorf("no progress events before the terminal result")
		}
		// The heartbeat strides by simulated cycles, so the same run
		// stepped every cycle streams as many progress frames.
		perCycle, err := cl.SubmitStream(ctx, Request{Workload: "gemm", Scale: 4, Config: &wire.Config{NoSkipAhead: true}})
		if err != nil {
			return err
		}
		if perCycle.Progress != out.Progress {
			return fmt.Errorf("%d progress frames stepping every cycle, %d under the default scheduler", perCycle.Progress, out.Progress)
		}
		var order []string
		for _, ev := range out.Events {
			order = append(order, ev.Type)
		}
		joined := strings.Join(order, " ")
		if order[0] != eventQueued || order[1] != eventStarted || order[len(order)-1] != eventResult {
			return fmt.Errorf("unexpected event order: %s", joined)
		}
		if !out.Resp.Verified {
			return fmt.Errorf("streamed gemm not verified against golden model")
		}
		fmt.Fprintf(w, "smoke stream events: %s\n", joined)
		return nil
	}); err != nil {
		return err
	}
	if err := step("stream cached", func() error {
		// The same submission over the unary and streaming paths must
		// carry the same payload: the terminal SSE data is byte-identical
		// to the compacted unary response body.
		body, err := rawSubmit(ctx, base, `{"workload":"gemm","scale":4}`)
		if err != nil {
			return err
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			return err
		}
		out, err := cl.SubmitStream(ctx, Request{Workload: "gemm", Scale: 4})
		if err != nil {
			return err
		}
		if len(out.Events) != 1 || out.Events[0].Type != eventResult {
			return fmt.Errorf("cached stream: want exactly one result event, got %d events", len(out.Events))
		}
		if !out.Resp.Cached {
			return fmt.Errorf("cached stream response not marked cached")
		}
		if !bytes.Equal(bytes.TrimSpace(compact.Bytes()), []byte(out.Events[0].Data)) {
			return fmt.Errorf("terminal event differs from unary body:\nunary:  %s\nstream: %s",
				compact.Bytes(), out.Events[0].Data)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := step("metrics", func() error {
		expo, err := rawGet(ctx, base+"/metrics")
		if err != nil {
			return err
		}
		if lerr := obs.CheckExposition(expo); lerr != nil {
			return fmt.Errorf("exposition lint: %w", lerr)
		}
		completed, err := promValue(expo, "serve_completed_total")
		if err != nil {
			return err
		}
		statusz, err := rawGet(ctx, base+"/statusz")
		if err != nil {
			return err
		}
		var st struct {
			Counters Counters `json:"counters"`
		}
		if err := json.Unmarshal(statusz, &st); err != nil {
			return err
		}
		if uint64(completed) != st.Counters.Completed {
			return fmt.Errorf("serve_completed_total %v disagrees with /statusz completed %d",
				completed, st.Counters.Completed)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := step("typed reject", func() error {
		_, err := cl.Submit(ctx, Request{Workload: "no-such-kernel"})
		var ae *apiError
		if !errors.As(err, &ae) || ae.Kind != KindUnknown {
			return fmt.Errorf("want unknown-workload rejection, got %v", err)
		}
		if ae.Kind.Retryable() {
			return fmt.Errorf("unknown workload marked retryable")
		}
		return nil
	}); err != nil {
		return err
	}
	if err := step("drain", func() error {
		// Kick off a fresh (uncached) run, then drain while it is in
		// flight: drain must finish it, and readyz must flip unhealthy.
		inflight := make(chan error, 1)
		admitted := s.Counters().Accepted
		go func() {
			resp, _, err := cl.SubmitRetry(ctx, Request{Workload: "fft"})
			if err == nil && resp == nil {
				err = fmt.Errorf("nil response")
			}
			inflight <- err
		}()
		for s.Counters().Accepted == admitted { // drain must finish an admitted run
			if ctx.Err() != nil {
				return fmt.Errorf("run never admitted before drain")
			}
			time.Sleep(time.Millisecond)
		}
		s.Drain()
		if err := expectStatus(ctx, base+"/readyz", http.StatusServiceUnavailable); err != nil {
			return fmt.Errorf("readyz after drain: %w", err)
		}
		if _, err := cl.Submit(ctx, Request{Workload: "gemm", Options: RunOptions{Metrics: true}}); err == nil {
			return fmt.Errorf("post-drain submission accepted")
		}
		select {
		case err := <-inflight:
			if err != nil {
				// The drain grace is generous; the in-flight run should
				// have completed, not been shed.
				return fmt.Errorf("in-flight run during drain: %w", err)
			}
		case <-ctx.Done():
			return fmt.Errorf("in-flight run never returned after drain")
		}
		return nil
	}); err != nil {
		return err
	}

	// Graceful drain already happened at the serve layer (every accepted
	// run finished and responded); the listener teardown can be abrupt.
	// http.Server.Shutdown would wait forever on a pooled keep-alive
	// connection that never sends another request.
	if err := hs.Close(); err != nil {
		return fmt.Errorf("smoke shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("smoke serve: %w", err)
	}
	c := s.Counters()
	fmt.Fprintf(w, "smoke counters: accepted=%d completed=%d cache_hits=%d rejected=%d\n",
		c.Accepted, c.Completed, c.CacheHits, c.Rejected)
	if c.CacheHits == 0 {
		return fmt.Errorf("smoke: no cache hit recorded")
	}
	if c.Panics != 0 {
		return fmt.Errorf("smoke: %d panics escaped into the counters", c.Panics)
	}
	return nil
}

// rawSubmit posts a literal JSON body and returns the raw response
// bytes (for byte-level comparisons the typed client would launder).
func rawSubmit(ctx context.Context, base, body string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/run", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("raw submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func rawGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// promValue extracts a single unlabeled sample value from a text
// exposition payload.
func promValue(expo []byte, name string) (float64, error) {
	for _, line := range strings.Split(string(expo), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("metric %s not in exposition", name)
}

func expectStatus(ctx context.Context, url string, want int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s: status %d, want %d", url, resp.StatusCode, want)
	}
	return nil
}
