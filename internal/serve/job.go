package serve

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"softbrain/internal/core"
	"softbrain/internal/faults"
	"softbrain/internal/obs"
	"softbrain/internal/wire"
	"softbrain/internal/workloads"
	"softbrain/internal/workloads/dnn"
	"softbrain/internal/workloads/ext"
	"softbrain/internal/workloads/machsuite"
)

// Request is one simulation submission: either a named built-in
// workload (verified against its golden model) or a raw wire-format
// program. Exactly one of Workload and Program must be set.
type Request struct {
	Workload string `json:"workload,omitempty"` // built-in workload name
	Scale    int    `json:"scale,omitempty"`    // problem scale (named workloads)

	Program *wire.Program `json:"program,omitempty"` // raw program submission
	Config  *wire.Config  `json:"config,omitempty"`  // machine knobs (raw submissions; knobs-only for named)

	Faults *FaultsBlock `json:"faults,omitempty"` // per-request fault injection

	Options RunOptions `json:"options,omitempty"`
}

// FaultsBlock requests fault injection for one run. With an explicit
// seed the run is deterministic — identical resubmissions reach the
// identical outcome, so caching and dedup apply as usual. Without one
// the server draws a fresh seed, reports it in the response, and the
// run bypasses the cache: two identical-looking submissions would not
// reach the same outcome, so neither may answer for the other.
type FaultsBlock struct {
	Profile string `json:"profile"`        // named profile (see internal/faults)
	Seed    *int64 `json:"seed,omitempty"` // omitted = server draws one
}

// RunOptions select what the response carries and how long the run may
// take.
type RunOptions struct {
	Warm      bool   `json:"warm,omitempty"`       // measure the cache-warm second run
	Metrics   bool   `json:"metrics,omitempty"`    // include the obs metrics dump
	Trace     bool   `json:"trace,omitempty"`      // include the Perfetto trace
	TimeoutMS uint64 `json:"timeout_ms,omitempty"` // per-request wall-clock budget
}

// Response is a completed simulation.
type Response struct {
	Name      string          `json:"name"`
	Units     int             `json:"units"`
	Cycles    uint64          `json:"cycles"`
	Verified  bool            `json:"verified"`          // golden-model check ran and passed
	Cached    bool            `json:"cached"`            // served from the result cache
	Deduped   bool            `json:"deduped,omitempty"` // shared an in-flight identical run
	Stats     *core.Stats     `json:"stats"`
	Metrics   json.RawMessage `json:"metrics,omitempty"`
	Trace     json.RawMessage `json:"trace,omitempty"`
	SimMS     float64         `json:"sim_ms"`               // host wall time of the simulation itself
	FaultSeed int64           `json:"fault_seed,omitempty"` // server-drawn fault seed (unseeded faults block)
}

// ErrKind classifies a request failure for the retry policy: transient
// kinds are worth retrying with backoff, deterministic ones never are
// (an identical resubmission reaches the identical outcome — and
// likely the cache).
type ErrKind string

const (
	KindInvalid   ErrKind = "invalid-request" // malformed submission (wire rejection)
	KindUnknown   ErrKind = "unknown-workload"
	KindOverload  ErrKind = "overloaded" // admission queue full — transient
	KindDraining  ErrKind = "draining"   // server shutting down — transient
	KindDeadline  ErrKind = "deadline-exceeded"
	KindCanceled  ErrKind = "canceled"
	KindDeadlock  ErrKind = "deadlock"      // classified hang — deterministic
	KindMachine   ErrKind = "machine-error" // invariant failure — deterministic
	KindVerify    ErrKind = "verify-failed"
	KindPanic     ErrKind = "internal-panic"
	KindTransport ErrKind = "transport" // client-side: connection-level failure
)

// Retryable reports whether a failure of this kind is transient: only
// overload and drain shedding are — never a deterministic simulation
// outcome, and never an invalid submission.
func (k ErrKind) Retryable() bool {
	return k == KindOverload || k == KindDraining || k == KindTransport
}

// apiError is the typed failure the server reports, rendered as the
// ErrorBody JSON and mapped to an HTTP status.
type apiError struct {
	Status     int // HTTP status code
	Kind       ErrKind
	Msg        string
	RetryAfter time.Duration // client-side: parsed Retry-After hint
}

func (e *apiError) Error() string { return fmt.Sprintf("%s: %s", e.Kind, e.Msg) }

// ErrorBody is the JSON error envelope clients receive.
type ErrorBody struct {
	Error struct {
		Kind      ErrKind `json:"kind"`
		Message   string  `json:"message"`
		Retryable bool    `json:"retryable"`
	} `json:"error"`
}

func errBody(e *apiError) ErrorBody {
	var b ErrorBody
	b.Error.Kind = e.Kind
	b.Error.Message = e.Msg
	b.Error.Retryable = e.Kind.Retryable()
	return b
}

// testHookExecute, when set, observes every execution as it starts.
// Tests use it to inject faults (panics, stalls) behind the worker's
// isolation boundary.
var testHookExecute func(*runRequest)

// runRequest is a validated, executable submission.
type runRequest struct {
	name    string
	scale   int                 // named-workload problem scale
	inst    *workloads.Instance // what runs: a named workload or a raw program
	raw     bool                // inst is a raw program: one unit, no Init or Check, keyed by content
	cfg     core.Config
	opts    RunOptions
	timeout time.Duration

	bypassCache bool  // unseeded faults: outcome is not content-addressed
	faultSeed   int64 // server-drawn seed to report back
}

// decodeRequest strictly parses and validates a submission body.
func (s *Server) decodeRequest(body []byte) (*runRequest, *apiError) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, &apiError{Status: 400, Kind: KindInvalid, Msg: err.Error()}
	}
	if dec.More() {
		return nil, &apiError{Status: 400, Kind: KindInvalid, Msg: "trailing data after request object"}
	}
	if (req.Workload == "") == (req.Program == nil) {
		return nil, &apiError{Status: 400, Kind: KindInvalid, Msg: "exactly one of workload and program must be set"}
	}
	rr := &runRequest{opts: req.Options}
	rr.timeout = s.opts.DefaultTimeout
	if req.Options.TimeoutMS > 0 {
		rr.timeout = time.Duration(req.Options.TimeoutMS) * time.Millisecond
	}
	if rr.timeout > s.opts.MaxTimeout {
		rr.timeout = s.opts.MaxTimeout
	}

	if req.Program != nil {
		prog, err := req.Program.Build()
		if err != nil {
			return nil, &apiError{Status: 400, Kind: KindInvalid, Msg: err.Error()}
		}
		wc := wire.Config{}
		if req.Config != nil {
			wc = *req.Config
		}
		cfg, err := wc.Build()
		if err != nil {
			return nil, &apiError{Status: 400, Kind: KindInvalid, Msg: err.Error()}
		}
		rr.name, rr.raw, rr.cfg = prog.Name, true, cfg
		rr.inst = &workloads.Instance{Name: prog.Name, Progs: []*core.Program{prog}}
		return rr, applyFaults(&req, rr)
	}

	if req.Scale == 0 {
		req.Scale = 1 // normalized before keying: scale 0 and 1 are the same content
	}
	inst, cfg, err := buildWorkload(req.Workload, req.Scale)
	if err != nil {
		return nil, &apiError{Status: 404, Kind: KindUnknown, Msg: err.Error()}
	}
	// Named workloads pick their own fabric; the wire config contributes
	// the scalar knobs only.
	if req.Config != nil {
		if req.Config.Preset != "" {
			return nil, &apiError{Status: 400, Kind: KindInvalid,
				Msg: "config.preset does not apply to a named workload (the workload picks its fabric)"}
		}
		knobs, kerr := req.Config.Build()
		if kerr != nil {
			return nil, &apiError{Status: 400, Kind: KindInvalid, Msg: kerr.Error()}
		}
		cfg.WatchdogCycles = knobs.WatchdogCycles
		cfg.Sched = knobs.Sched
		cfg.Faults = knobs.Faults
		if verr := cfg.Validate(); verr != nil {
			return nil, &apiError{Status: 400, Kind: KindInvalid, Msg: verr.Error()}
		}
	}
	rr.name, rr.scale, rr.inst, rr.cfg = inst.Name, req.Scale, inst, cfg
	return rr, applyFaults(&req, rr)
}

// applyFaults resolves a top-level faults block onto the run config.
func applyFaults(req *Request, rr *runRequest) *apiError {
	if req.Faults == nil {
		return nil
	}
	if req.Config != nil && req.Config.Faults != nil {
		return &apiError{Status: 400, Kind: KindInvalid,
			Msg: "faults and config.faults are mutually exclusive; set one"}
	}
	var seed int64
	if req.Faults.Seed != nil {
		seed = *req.Faults.Seed
	} else {
		seed = drawSeed()
		rr.bypassCache = true
		rr.faultSeed = seed
	}
	fc, err := faults.Profile(req.Faults.Profile, seed)
	if err != nil {
		return &apiError{Status: 400, Kind: KindInvalid, Msg: err.Error()}
	}
	if verr := fc.Validate(); verr != nil {
		return &apiError{Status: 400, Kind: KindInvalid, Msg: verr.Error()}
	}
	rr.cfg.Faults = &fc
	return nil
}

// drawSeed draws a nonzero random fault seed.
func drawSeed() int64 {
	var b [8]byte
	_, _ = crand.Read(b[:]) // crypto/rand.Read does not fail on supported platforms
	seed := int64(binary.LittleEndian.Uint64(b[:]) >> 1)
	if seed == 0 {
		seed = 1
	}
	return seed
}

// buildWorkload resolves a named built-in workload exactly as sdsim
// does: DNN layers on the 8-unit DNN cluster, MachSuite and extension
// codes on the broadly provisioned single unit.
func buildWorkload(name string, scale int) (*workloads.Instance, core.Config, error) {
	if scale == 0 {
		scale = 1
	}
	if scale < 1 || scale > 8 {
		return nil, core.Config{}, fmt.Errorf("scale %d out of range [1, 8]", scale)
	}
	if l, err := dnn.Find(name); err == nil {
		cfg := dnn.Config()
		inst, err := l.Build(cfg, dnn.Units)
		return inst, cfg, err
	}
	cfg := core.DefaultConfig()
	if e, err := machsuite.Find(name); err == nil {
		inst, err := e.Build(cfg, scale)
		return inst, cfg, err
	}
	e, err := ext.Find(name)
	if err != nil {
		return nil, core.Config{}, fmt.Errorf("unknown workload %q", name)
	}
	inst, err := e.Build(cfg, scale)
	return inst, cfg, err
}

// cacheKey is the content address of a submission: the SHA-256 of the
// canonical re-encoding of everything that determines the result. For
// a raw program that is the wire re-encoding of the decoded program
// (whitespace- and field-order-independent); for a named workload it
// is (name, scale) — the DFG→CGRA placement a rebuild would produce
// is not canonical, so the workload's identity is its name, not any
// one compiled artifact. The scalar knobs and output options are
// hashed in both cases.
func (rr *runRequest) cacheKey() (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if rr.raw {
		wp, err := wire.FromProgram(rr.inst.Progs[0])
		if err != nil {
			return "", err
		}
		if err := enc.Encode(wp); err != nil {
			return "", err
		}
	} else {
		fmt.Fprintf(h, "workload=%s scale=%d\n", rr.name, rr.scale)
	}
	fmt.Fprintf(h, "watchdog=%d noskip=%v warm=%v metrics=%v trace=%v\n",
		rr.cfg.WatchdogCycles, rr.cfg.Sched == core.SchedPerCycle, rr.opts.Warm, rr.opts.Metrics, rr.opts.Trace)
	if rr.cfg.Faults != nil {
		if err := enc.Encode(rr.cfg.Faults); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cacheable reports whether an outcome may be served to a future
// identical submission: successes and deterministic failures are;
// cancellations, deadlines, and shedding are not.
func cacheable(err *apiError) bool {
	if err == nil {
		return true
	}
	switch err.Kind {
	case KindDeadlock, KindMachine, KindVerify:
		return true
	}
	return false
}

// execute runs one validated submission under its flight context and
// classifies the outcome. It never panics: simulation invariants are
// recovered inside core, and the worker loop recovers anything else.
// A named workload is verified against its golden model, except under
// corrupting fault profiles, where a mismatch is the expected fault
// effect, not an error; a raw program has no golden model, and its
// deliverables are stats, metrics, and trace.
func (s *Server) execute(ctx context.Context, f *flight) (*Response, *apiError) {
	rr := f.req
	if testHookExecute != nil {
		testHookExecute(rr)
	}
	start := time.Now()
	cl, stats, err := rr.inst.Run(ctx, rr.cfg, workloads.RunOpts{
		Warm:    rr.opts.Warm,
		Prepare: func(cl *core.Cluster) { s.instrument(cl, f, rr.opts) },
	})
	verified := err == nil && rr.inst.Check != nil
	var mm *workloads.MismatchError
	if errors.As(err, &mm) {
		if rr.cfg.Faults == nil || !rr.cfg.Faults.Corrupting() {
			return nil, &apiError{Status: 422, Kind: KindVerify, Msg: mm.Err.Error()}
		}
		err = nil
	}
	if err != nil {
		return nil, classify(err)
	}
	s.recordRun(cl, stats)
	resp := &Response{Name: rr.name, Units: rr.inst.Units(), Cycles: stats.Cycles, Verified: verified,
		Stats: stats, FaultSeed: rr.faultSeed}
	if err := s.attachObs(cl, stats, rr, resp); err != nil {
		return nil, classify(err)
	}
	resp.SimMS = float64(time.Since(start).Microseconds()) / 1e3
	return resp, nil
}

// instrument attaches what the flight and its options ask for: the
// progress heartbeat routed into the flight's telemetry (stream events,
// /statusz snapshot, debug logs), and the metrics registry and trace
// recorders behind the response's metrics and trace.
func (s *Server) instrument(cl *core.Cluster, f *flight, opts RunOptions) {
	if f.events != nil {
		cl.SetHeartbeat(s.opts.ProgressEvery, func(r core.ProgressReport) { s.onProgress(f, r) })
	}
	if opts.Metrics || opts.Trace {
		cl.EnableMetrics(obs.Options{Slices: obs.DefaultSlices})
	}
	if opts.Trace {
		for _, u := range cl.Units {
			u.EnableTrace(4096)
		}
	}
}

// recordRun folds a completed simulation into the /metrics aggregates.
func (s *Server) recordRun(cl *core.Cluster, stats *core.Stats) {
	pr := cl.Progress(stats.Cycles)
	s.metrics.addRun(stats.Cycles, pr.RetiredBytes, cl.SchedStats())
}

// attachObs renders the requested metrics dump and Perfetto trace into
// the response.
func (s *Server) attachObs(cl *core.Cluster, stats *core.Stats, rr *runRequest, resp *Response) error {
	if rr.opts.Metrics {
		dump := cl.MetricsDump()
		if err := obs.CheckConservation(dump); err != nil {
			return err
		}
		s.metrics.addStalls(dump)
		data, err := json.Marshal(dump)
		if err != nil {
			return err
		}
		resp.Metrics = data
	}
	if rr.opts.Trace {
		var buf bytes.Buffer
		if err := obs.WriteTrace(&buf, cl.TraceInputs(stats.Cycles)); err != nil {
			return err
		}
		resp.Trace = json.RawMessage(buf.Bytes())
	}
	return nil
}

// classify maps an execution error onto the typed API failure. The
// mapping is the server half of the retry contract: deterministic
// outcomes (deadlock, machine error, verification mismatch) are final;
// only cancellation causes are transient, and only the drain cause is
// marked retryable.
func classify(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	var ce *core.CanceledError
	if errors.As(err, &ce) {
		switch {
		case errors.Is(ce.Err, errDeadline):
			return &apiError{Status: 504, Kind: KindDeadline,
				Msg: fmt.Sprintf("wall-clock budget exhausted at cycle %d", ce.Cycle)}
		case errors.Is(ce.Err, errDraining):
			return &apiError{Status: 503, Kind: KindDraining,
				Msg: fmt.Sprintf("server draining; run canceled at cycle %d", ce.Cycle)}
		default:
			return &apiError{Status: 499, Kind: KindCanceled, Msg: ce.Error()}
		}
	}
	var de *core.DeadlockError
	if errors.As(err, &de) {
		return &apiError{Status: 422, Kind: KindDeadlock, Msg: de.Error()}
	}
	var me *core.MachineError
	if errors.As(err, &me) {
		return &apiError{Status: 500, Kind: KindMachine, Msg: me.Error()}
	}
	return &apiError{Status: 500, Kind: KindMachine, Msg: err.Error()}
}
