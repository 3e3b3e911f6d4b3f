package serve

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"softbrain/internal/core"
)

// cache is the content-addressed result cache: completed deterministic
// outcomes keyed by the submission hash, evicted LRU. A hit serves the
// stored response without touching a worker — identical submissions
// (and identical DFG→CGRA schedules, the expensive part of a load)
// cost one map lookup.
type cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key  string
	resp *Response
	err  *apiError // deterministic failures are cached too
}

func newCache(capacity int) *cache {
	return &cache{cap: capacity, entries: make(map[string]*list.Element), order: list.New()}
}

func (c *cache) get(key string) (*Response, *apiError, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, nil, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.resp, e.err, true
}

func (c *cache) put(key string, resp *Response, err *apiError) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value = &cacheEntry{key: key, resp: resp, err: err}
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, resp: resp, err: err})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// flight is one in-progress simulation shared by every request that
// submitted the same content hash (singleflight dedup). The flight
// owns its own context, detached from any single request: a waiter
// that disconnects just leaves, and only when the last waiter is gone
// is the simulation itself canceled — one client's impatience never
// cancels another's result.
//
// A flight is also the unit of run telemetry: it carries a run ID, the
// lifecycle event hub streamed over SSE, and the latest heartbeat
// snapshot rendered by /statusz.
type flight struct {
	key string
	id  string // run ID, joinable across events, logs, and /statusz
	req *runRequest

	reqID     string    // request ID of the originating submission
	submitted time.Time // when the flight was created (admission time)
	deadline  time.Time // wall-clock budget expiry

	ctx    context.Context
	cancel context.CancelCauseFunc
	timer  *time.Timer // wall-clock deadline; stopped on finish

	mu      sync.Mutex
	waiters int // back to 0 only when every waiter left: the run is canceled

	events    *eventHub                           // run lifecycle events (SSE)
	startedNS atomic.Int64                        // unix ns the run left the queue (0 = still queued)
	progress  atomic.Pointer[core.ProgressReport] // latest heartbeat snapshot

	done chan struct{} // closed when resp/err are set
	resp *Response
	err  *apiError
}

// started reports when the flight left the queue, or false while
// queued.
func (f *flight) started() (time.Time, bool) {
	ns := f.startedNS.Load()
	if ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// waiterCount is the current number of requests waiting on the flight.
func (f *flight) waiterCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.waiters
}

// addWaiter registers one more request waiting on the flight. It
// refuses a flight every waiter has left: that run is canceled.
func (f *flight) addWaiter() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.waiters == 0 {
		return false
	}
	f.waiters++
	return true
}

// dropWaiter removes a departed request; the last one out cancels the
// simulation with the given cause.
func (f *flight) dropWaiter(cause error) {
	f.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	f.mu.Unlock()
	if last {
		f.cancel(cause)
	}
}

// finish publishes the outcome and wakes every waiter. The terminal
// stream event goes out before done closes, so SSE subscribers always
// observe it ahead of the done signal.
func (f *flight) finish(resp *Response, err *apiError) {
	f.resp, f.err = resp, err
	if f.events != nil {
		if err != nil {
			f.events.publish(eventError, errBody(err))
		} else {
			f.events.publish(eventResult, resp)
		}
	}
	close(f.done)
	if f.timer != nil {
		f.timer.Stop()
	}
	f.cancel(nil) // release the context resources
}

// flightGroup is the table of live flights: at most one per submission
// key (singleflight dedup), each also indexed by run ID for /statusz
// rows and event attachment. A flight is in both indexes from join
// until forget.
type flightGroup struct {
	mu    sync.Mutex
	byKey map[string]*flight
	byID  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{byKey: make(map[string]*flight), byID: make(map[string]*flight)}
}

// join returns the live flight for key, or registers fresh as it and
// returns nil. Either way the caller is a waiter on the returned or
// registered flight. A flight every waiter left is not joined: fresh
// replaces it under key, and the left one keeps its run ID until forget.
func (g *flightGroup) join(key string, fresh *flight) *flight {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.byKey[key]; ok && f.addWaiter() {
		return f
	}
	fresh.waiters = 1 // not yet shared
	g.byKey[key] = fresh
	g.byID[fresh.id] = fresh
	return nil
}

// forget retires f once it completed (or was shed before starting), so
// later submissions start a new flight (or hit the cache).
func (g *flightGroup) forget(f *flight) {
	g.mu.Lock()
	if g.byKey[f.key] == f {
		delete(g.byKey, f.key)
	}
	delete(g.byID, f.id)
	g.mu.Unlock()
}

// lookup returns the live flight with run ID id, or nil.
func (g *flightGroup) lookup(id string) *flight {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.byID[id]
}

// live snapshots the live flights, in no particular order.
func (g *flightGroup) live() []*flight {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*flight, 0, len(g.byID))
	for _, f := range g.byID {
		out = append(out, f)
	}
	return out
}
