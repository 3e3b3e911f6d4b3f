package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Client is the reference HTTP client for the service, implementing
// the retry contract the server advertises: transient failures (429
// queue-full, 503 draining) retry with exponential backoff honoring
// Retry-After; deterministic failures surface immediately.
type Client struct {
	BaseURL     string
	HTTP        *http.Client
	MaxRetries  int           // retry budget for transient failures (default 4)
	BaseBackoff time.Duration // first backoff step (default 50ms), doubled per retry
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Submit performs one request/response exchange. A non-200 with a
// decodable error envelope returns a *apiError; transport-level
// failures return the underlying error.
func (c *Client) Submit(ctx context.Context, req Request) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, rejection(resp, data)
	}
	var out Response
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// rejection decodes the body of a rejected exchange, read into data:
// an error envelope becomes its *apiError, with the Retry-After delay
// when the server sent one; any other body becomes a KindTransport
// error quoting the status and the body.
func rejection(resp *http.Response, data []byte) *apiError {
	var eb ErrorBody
	if jerr := json.Unmarshal(data, &eb); jerr != nil || eb.Error.Kind == "" {
		return &apiError{Status: resp.StatusCode, Kind: KindTransport,
			Msg: fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))}
	}
	ae := &apiError{Status: resp.StatusCode, Kind: eb.Error.Kind, Msg: eb.Error.Message}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, perr := strconv.Atoi(ra); perr == nil {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// SubmitRetry is Submit under the retry policy. It returns the number
// of retries spent alongside the outcome; a deterministic failure is
// never retried (the next attempt would only reach the same verdict,
// and likely the cache).
func (c *Client) SubmitRetry(ctx context.Context, req Request) (*Response, int, error) {
	return retry(ctx, c, func() (*Response, error) { return c.Submit(ctx, req) })
}

// retry runs submit under the client's retry policy: transient
// failures (429, 503) retry with exponential backoff honoring
// Retry-After, up to MaxRetries times; anything else is final. It
// returns the last attempt's outcome and the number of retries spent.
func retry[T any](ctx context.Context, c *Client, submit func() (T, error)) (T, int, error) {
	maxRetries := c.MaxRetries
	if maxRetries == 0 {
		maxRetries = 4
	}
	backoff := c.BaseBackoff
	if backoff == 0 {
		backoff = 50 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		out, err := submit()
		var ae *apiError
		if err == nil || !errors.As(err, &ae) || !ae.Kind.Retryable() || attempt >= maxRetries {
			return out, attempt, err
		}
		wait := backoff << attempt
		if ae.RetryAfter > wait {
			wait = ae.RetryAfter
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return out, attempt, context.Cause(ctx)
		}
	}
}

// LoadConfig shapes a load-generation run.
type LoadConfig struct {
	Clients     int           `json:"clients"`      // concurrent client goroutines
	Requests    int           `json:"requests"`     // total requests issued across all clients
	Workloads   []string      `json:"workloads"`    // request mix, assigned round-robin
	Seed        int64         `json:"seed"`         // request-assignment seed
	CancelEvery int           `json:"cancel_every"` // every Nth request is abandoned mid-run (0 = never)
	CancelAfter time.Duration `json:"cancel_after"` // how long a chaos request lives before abandonment
	TimeoutMS   uint64        `json:"timeout_ms"`   // per-request server-side budget (0 = server default)
	StreamEvery int           `json:"stream_every"` // every Nth request uses the SSE streaming path (0 = never)
}

// LoadResult summarizes a load run: the throughput/latency numbers
// published next to BENCH_sim.json plus the outcome census the soak
// test asserts over.
type LoadResult struct {
	Sent       int           `json:"sent"`
	OK         int           `json:"ok"`
	CacheHits  int           `json:"cache_hits"`
	Deduped    int           `json:"deduped"`
	Shed       int           `json:"shed"`     // gave up after retries on 429/503
	Canceled   int           `json:"canceled"` // chaos abandonments
	Failed     int           `json:"failed"`   // deterministic failures
	Retries    int           `json:"retries"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	SimsPerSec float64       `json:"sims_per_sec"`
	P50        time.Duration `json:"p50_ns"`
	P90        time.Duration `json:"p90_ns"`
	P99        time.Duration `json:"p99_ns"`

	StreamOK       int           `json:"stream_ok"`       // streamed requests that reached a terminal result
	StreamProgress int           `json:"stream_progress"` // progress frames observed across streamed requests
	StreamP50      time.Duration `json:"stream_p50_ns"`   // streamed-path latency percentiles
	StreamP90      time.Duration `json:"stream_p90_ns"`
	StreamP99      time.Duration `json:"stream_p99_ns"`
}

// RunLoad drives the service at baseURL with cfg.Clients concurrent
// clients and returns the aggregate result.
func RunLoad(ctx context.Context, baseURL string, cfg LoadConfig) (*LoadResult, error) {
	if cfg.Clients < 1 || cfg.Requests < 1 {
		return nil, fmt.Errorf("loadgen: need at least one client and one request")
	}
	if len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("loadgen: empty workload mix")
	}

	type outcome struct {
		ok, cached, deduped, shed, canceled, failed bool
		streamed                                    bool
		progress                                    int
		retries                                     int
		latency                                     time.Duration
	}
	jobs := make(chan int)
	outcomes := make([]outcome, cfg.Requests)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := &Client{BaseURL: baseURL}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
			for n := range jobs {
				req := Request{
					Workload: cfg.Workloads[n%len(cfg.Workloads)],
					Options:  RunOptions{TimeoutMS: cfg.TimeoutMS},
				}
				o := &outcomes[n]
				rctx, rcancel := ctx, context.CancelFunc(func() {})
				chaos := cfg.CancelEvery > 0 && n%cfg.CancelEvery == cfg.CancelEvery-1
				if chaos {
					after := cfg.CancelAfter
					if after <= 0 {
						after = time.Duration(1+rng.Intn(5)) * time.Millisecond
					}
					rctx, rcancel = context.WithTimeout(ctx, after)
				}
				streamed := cfg.StreamEvery > 0 && n%cfg.StreamEvery == cfg.StreamEvery-1
				o.streamed = streamed
				reqStart := time.Now()
				var resp *Response
				var retries int
				var err error
				if streamed {
					var out *StreamOutcome
					out, retries, err = cl.submitStreamRetry(rctx, req)
					if out != nil {
						o.progress = out.Progress
						resp = out.Resp
					}
				} else {
					resp, retries, err = cl.SubmitRetry(rctx, req)
				}
				abandoned := rctx.Err() != nil // read before rcancel poisons it
				rcancel()
				o.retries = retries
				o.latency = time.Since(reqStart)
				switch {
				case err == nil:
					o.ok = true
					o.cached = resp.Cached
					o.deduped = resp.Deduped
				case chaos && abandoned:
					o.canceled = true
				default:
					var ae *apiError
					if errors.As(err, &ae) && ae.Kind.Retryable() {
						o.shed = true
					} else {
						o.failed = true
					}
				}
			}
		}(c)
	}
	for n := 0; n < cfg.Requests; n++ {
		select {
		case jobs <- n:
		case <-ctx.Done():
			close(jobs)
			wg.Wait()
			return nil, context.Cause(ctx)
		}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	res := &LoadResult{Sent: cfg.Requests, Elapsed: elapsed}
	var okLatencies, streamLatencies []time.Duration
	for i := range outcomes {
		o := &outcomes[i]
		res.Retries += o.retries
		res.StreamProgress += o.progress
		switch {
		case o.ok:
			res.OK++
			okLatencies = append(okLatencies, o.latency)
			if o.streamed {
				res.StreamOK++
				streamLatencies = append(streamLatencies, o.latency)
			}
			if o.cached {
				res.CacheHits++
			}
			if o.deduped {
				res.Deduped++
			}
		case o.canceled:
			res.Canceled++
		case o.shed:
			res.Shed++
		default:
			res.Failed++
		}
	}
	if elapsed > 0 {
		res.SimsPerSec = float64(res.OK) / elapsed.Seconds()
	}
	percentiles := func(lats []time.Duration) (p50, p90, p99 time.Duration) {
		if len(lats) == 0 {
			return
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pick := func(q float64) time.Duration { return lats[int(q*float64(len(lats)-1))] }
		return pick(0.50), pick(0.90), pick(0.99)
	}
	res.P50, res.P90, res.P99 = percentiles(okLatencies)
	res.StreamP50, res.StreamP90, res.StreamP99 = percentiles(streamLatencies)
	return res, nil
}

// submitStreamRetry is SubmitStream under the same retry policy as
// SubmitRetry: pre-stream shedding (429/503) retries with backoff;
// anything in-band is final.
func (c *Client) submitStreamRetry(ctx context.Context, req Request) (*StreamOutcome, int, error) {
	return retry(ctx, c, func() (*StreamOutcome, error) { return c.SubmitStream(ctx, req) })
}
