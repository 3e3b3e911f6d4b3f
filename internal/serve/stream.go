package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"softbrain/internal/core"
)

// Streamed run events. A streaming submission (POST /v1/run?stream=1,
// or Accept: text/event-stream) receives the run lifecycle as
// Server-Sent Events instead of one response body:
//
//	queued   -> started -> progress* -> result | error
//
// The terminal event carries the same typed envelope as the unary
// path — a Response on success, the ErrorBody on failure — so a
// streaming client needs no second decoder. Observers can attach to an
// in-flight run with GET /v1/runs/{id}/events; they replay the full
// event history and then follow live. Event sequence numbers are the
// SSE id field, contiguous from 1 per run.

// Event types, in lifecycle order.
const (
	eventQueued   = "queued"
	eventStarted  = "started"
	eventProgress = "progress"
	eventResult   = "result"
	eventError    = "error"
)

// Event is one streamed run-lifecycle event as it crosses the wire.
type Event struct {
	Seq  int             `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// queuedEvent announces admission into the worker queue.
type queuedEvent struct {
	RunID    string `json:"run_id"`
	Workload string `json:"workload"`
	Scale    int    `json:"scale,omitempty"`
	Queued   int    `json:"queue_depth"` // queue occupancy at admission
}

// startedEvent announces the run leaving the queue for a worker.
type startedEvent struct {
	RunID       string  `json:"run_id"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
}

// progressEvent is one heartbeat frame built from core.ProgressReport.
type progressEvent struct {
	RunID        string `json:"run_id"`
	Cycle        uint64 `json:"cycle"`
	Commands     uint64 `json:"commands"`
	RetiredBytes uint64 `json:"retired_bytes"`
	RetiredDelta uint64 `json:"retired_delta"` // bytes retired since the previous frame
	StallMix     string `json:"stall_mix,omitempty"`
}

// eventHub is a flight's event log plus its live subscribers. Events
// are retained for the flight's lifetime so late subscribers (deduped
// joiners, /v1/runs/{id}/events observers) replay the full history in
// order before following live — the event sequence every consumer sees
// is identical.
type eventHub struct {
	mu     sync.Mutex
	events []Event
	subs   map[chan struct{}]struct{}
}

func newEventHub() *eventHub {
	return &eventHub{subs: make(map[chan struct{}]struct{})}
}

// publish appends one event and nudges every subscriber. Marshaling
// failures cannot happen for the fixed payload types; they are guarded
// anyway so a heartbeat can never take down a run.
func (h *eventHub) publish(typ string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	h.mu.Lock()
	h.events = append(h.events, Event{Seq: len(h.events) + 1, Type: typ, Data: data})
	for ch := range h.subs {
		select {
		case ch <- struct{}{}:
		default: // already nudged; subscriber will drain the log
		}
	}
	h.mu.Unlock()
}

// since returns the events after the first n, in order.
func (h *eventHub) since(n int) []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n >= len(h.events) {
		return nil
	}
	return h.events[n:len(h.events):len(h.events)]
}

// subscribe registers a nudge channel; drain the log with since.
func (h *eventHub) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch
}

func (h *eventHub) unsubscribe(ch chan struct{}) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}

// writeSSE frames one event per the SSE contract. Data is compact JSON
// (single line), so exactly one data: line per event.
func writeSSE(w io.Writer, ev Event) error {
	_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data)
	return err
}

// sseHeaders marks the response as an event stream and commits the
// status line.
func sseHeaders(w http.ResponseWriter, runID string) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	if runID != "" {
		h.Set("X-Run-Id", runID)
	}
	w.WriteHeader(http.StatusOK)
}

// streamCached serves a cache hit over SSE: one terminal event, no
// lifecycle (nothing ran). The result payload is byte-identical to the
// compact encoding of the unary cached response.
func (s *Server) streamCached(w http.ResponseWriter, resp *Response, cerr *apiError) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeJSON(w, http.StatusInternalServerError, errBody(&apiError{
			Status: 500, Kind: KindPanic, Msg: "response writer cannot stream"}))
		return
	}
	sseHeaders(w, "")
	if cerr != nil {
		_ = writeSSE(w, mustEvent(1, eventError, errBody(cerr)))
	} else {
		out := *resp
		out.Cached = true
		_ = writeSSE(w, mustEvent(1, eventResult, &out))
	}
	fl.Flush()
}

// mustEvent marshals a fixed payload type into an Event.
func mustEvent(seq int, typ string, payload any) Event {
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte("{}")
	}
	return Event{Seq: seq, Type: typ, Data: data}
}

// streamFlight follows a flight over SSE. A client that disconnects
// mid-stream detaches exactly like a unary waiter — the last waiter
// out cancels the simulation itself.
func (s *Server) streamFlight(w http.ResponseWriter, r *http.Request, f *flight) {
	fl, ok := w.(http.Flusher)
	if !ok {
		f.dropWaiter(errClientGone)
		s.writeJSON(w, http.StatusInternalServerError, errBody(&apiError{
			Status: 500, Kind: KindPanic, Msg: "response writer cannot stream"}))
		return
	}
	sseHeaders(w, f.id)
	fl.Flush()
	if follow(r.Context(), w, fl, f) {
		f.dropWaiter(nil)
	} else {
		f.dropWaiter(errClientGone)
	}
}

// handleRunEvents attaches a read-only observer to an in-flight run:
// full history replay, then live until terminal. Observers are not
// waiters — their disconnect never cancels the run.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	f := s.flights.lookup(id)
	if f == nil {
		s.writeError(w, r, &apiError{Status: 404, Kind: KindUnknown,
			Msg: fmt.Sprintf("no in-flight run %q (completed runs are not replayable)", id)})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, r, &apiError{Status: 500, Kind: KindPanic, Msg: "response writer cannot stream"})
		return
	}
	if info := reqInfoFrom(r.Context()); info != nil {
		info.runID = f.id
	}
	sseHeaders(w, f.id)
	fl.Flush()
	follow(r.Context(), w, fl, f)
}

// follow replays a flight's event history over SSE, then writes live
// events until the terminal one. It reports whether the flight
// finished while the client was still attached: false means a write
// failed or ctx, the client's request, ended first.
func follow(ctx context.Context, w http.ResponseWriter, fl http.Flusher, f *flight) bool {
	sub := f.events.subscribe()
	defer f.events.unsubscribe(sub)
	sent := 0
	emit := func() bool {
		evs := f.events.since(sent)
		for _, ev := range evs {
			if err := writeSSE(w, ev); err != nil {
				return false
			}
		}
		if len(evs) > 0 {
			sent += len(evs)
			fl.Flush()
		}
		return true
	}
	for {
		if !emit() {
			return false
		}
		select {
		case <-f.done:
			emit() // the terminal event was published before done closed
			return true
		case <-sub:
		case <-ctx.Done():
			return false
		}
	}
}

// onProgress is the heartbeat sink for one run: snapshot for /statusz,
// a progress frame for stream subscribers, and a debug log line
// joinable by run and request ID.
func (s *Server) onProgress(f *flight, r core.ProgressReport) {
	prev := f.progress.Swap(&r)
	var delta uint64
	if prev == nil {
		delta = r.RetiredBytes
	} else if r.RetiredBytes >= prev.RetiredBytes {
		delta = r.RetiredBytes - prev.RetiredBytes
	}
	f.events.publish(eventProgress, progressEvent{
		RunID:        f.id,
		Cycle:        r.Cycle,
		Commands:     r.Commands,
		RetiredBytes: r.RetiredBytes,
		RetiredDelta: delta,
		StallMix:     r.StallMix,
	})
	s.logger.Debug("run progress",
		"run_id", f.id, "req_id", f.reqID,
		"cycle", r.Cycle, "commands", r.Commands, "retired_bytes", r.RetiredBytes)
}

// wantsStream reports whether the submission asked for SSE delivery.
func wantsStream(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "1" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// StreamOutcome is what the reference client collects from a streamed
// run: the terminal response (or typed error via the returned error),
// and the full event sequence for inspection.
type StreamOutcome struct {
	RunID    string
	Events   []Event
	Progress int // count of progress events observed
	Resp     *Response
}

// SubmitStream performs one streamed request/response exchange: it
// POSTs with ?stream=1, consumes the SSE event sequence, and returns
// the terminal outcome. Pre-stream rejections (400/404/429/503) arrive
// as plain JSON and surface exactly like Submit's; an in-band terminal
// error event surfaces as the same *apiError.
func (c *Client) SubmitStream(ctx context.Context, req Request) (*StreamOutcome, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/run?stream=1", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("Accept", "text/event-stream")
	resp, err := c.httpClient().Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || !strings.HasPrefix(ct, "text/event-stream") {
		data, rerr := io.ReadAll(resp.Body)
		if rerr != nil {
			return nil, rerr
		}
		return nil, rejection(resp, data)
	}

	out := &StreamOutcome{RunID: resp.Header.Get("X-Run-Id")}
	var terminalErr *apiError
	err = ReadSSE(resp.Body, func(ev Event) error {
		out.Events = append(out.Events, ev)
		switch ev.Type {
		case eventProgress:
			out.Progress++
		case eventResult:
			var r Response
			if uerr := json.Unmarshal(ev.Data, &r); uerr != nil {
				return uerr
			}
			out.Resp = &r
		case eventError:
			var eb ErrorBody
			if uerr := json.Unmarshal(ev.Data, &eb); uerr != nil {
				return uerr
			}
			terminalErr = &apiError{Status: kindStatus(eb.Error.Kind), Kind: eb.Error.Kind, Msg: eb.Error.Message}
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	if terminalErr != nil {
		return out, terminalErr
	}
	if out.Resp == nil {
		return out, &apiError{Status: 0, Kind: KindTransport, Msg: "event stream ended without a terminal event"}
	}
	return out, nil
}

// kindStatus maps an error kind back to the HTTP status the unary path
// would have used; streamed terminal errors arrive in-band on a 200.
func kindStatus(k ErrKind) int {
	switch k {
	case KindInvalid:
		return 400
	case KindUnknown:
		return 404
	case KindOverload:
		return 429
	case KindDraining:
		return 503
	case KindDeadline:
		return 504
	case KindCanceled:
		return 499
	case KindDeadlock, KindVerify:
		return 422
	default:
		return 500
	}
}

// ReadSSE parses a Server-Sent-Events stream, invoking fn per event in
// order. It understands exactly the framing writeSSE produces (id,
// event, single-line data) and returns when the stream ends.
func ReadSSE(r io.Reader, fn func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	var ev Event
	flushEv := func() error {
		if ev.Type == "" && ev.Data == nil {
			return nil
		}
		err := fn(ev)
		ev = Event{}
		return err
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flushEv(); err != nil {
				return err
			}
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				return fmt.Errorf("sse: bad id line %q", line)
			}
			ev.Seq = n
		case strings.HasPrefix(line, "event: "):
			ev.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.Data = json.RawMessage(strings.TrimPrefix(line, "data: "))
		case strings.HasPrefix(line, ":"):
			// comment; ignore
		default:
			return fmt.Errorf("sse: unexpected line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return flushEv()
}
