// Package serve is the solver-as-a-service layer behind cmd/solverd: it
// turns the steady-state library's pieces — a Solve that is safe for
// concurrent use, JSON Scenario/Report serialization, context
// cancellation threaded into the exact simplex — into a long-running
// serving loop.
//
// The shape is a listener → admission queue → worker pool → cache
// pipeline:
//
//   - Admission: every scenario that misses the report cache enters a
//     bounded queue. The interactive endpoint (/solve) fails fast with a
//     structured 503 when the queue is full — backpressure the client can
//     retry on — while the batch endpoint (/sweep) blocks the producer,
//     throttling the upload itself.
//   - Deadlines: each request carries a deadline (the configured default,
//     or the request's own, capped by the configured maximum) covering
//     queue wait and solve; the context cancels the simplex between
//     pivots, so a deadline miss frees the worker promptly and answers a
//     structured 504.
//   - Worker pool: a fixed number of workers drain the queue, each
//     solving a scenario on its own platform, warm-started from one basis
//     cache shared by every solve.
//   - Report cache: an LRU of (platform-hash, spec-key) → Report. A hit
//     returns the exact Report object computed by the cold solve —
//     bit-identical bytes, no LP work — so hot scenarios cost a map
//     lookup.
//   - Telemetry: counters, gauges and latency histograms (Metrics) back
//     the /metrics endpoint.
//
// Determinism is the correctness anchor: a scenario served through this
// layer produces a Report byte-identical (modulo the solve_ms
// measurement) to the same scenario swept through internal/sweep, and a
// cache hit returns the cold solve's Report verbatim.
package serve

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	steadystate "repro"
	"repro/internal/lp"
	"repro/internal/lru"
)

// Config sizes a Server. Zero values select the defaults.
type Config struct {
	// Workers is the solver pool size; ≤ 0 means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the admission queue; ≤ 0 means DefaultQueueDepth.
	// A full queue fails fast on /solve (503) and blocks on /sweep.
	QueueDepth int
	// CacheSize is the report-cache capacity in entries; 0 means
	// DefaultCacheSize, negative disables the cache.
	CacheSize int
	// DefaultSolveTimeout is the per-request deadline applied when the
	// request does not carry one; 0 means DefaultSolveTimeoutValue,
	// negative means no default deadline.
	DefaultSolveTimeout time.Duration
	// MaxSolveTimeout caps request-supplied deadlines; 0 means
	// DefaultMaxSolveTimeout.
	MaxSolveTimeout time.Duration
	// MaxBodyBytes bounds a /solve request body and a single /sweep line;
	// 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Logger, when non-nil, receives one structured request-log record per
	// HTTP request (method, path, status, duration, request ID). Nil
	// disables request logging; request IDs are minted either way.
	Logger *slog.Logger
}

// The default Config values.
const (
	DefaultQueueDepth        = 64
	DefaultCacheSize         = 1024
	DefaultSolveTimeoutValue = 2 * time.Minute
	DefaultMaxSolveTimeout   = 10 * time.Minute
	DefaultMaxBodyBytes      = 8 << 20
)

// basisCacheSize bounds the warm-start basis cache shared by every
// solve: certified simplex bases keyed by problem shape, reused to skip
// phase 1 when a structurally identical scenario arrives (a perturbed
// platform, a re-submitted spec). Warm starts never change response
// bytes — reports stay bit-identical to cold solves (modulo solve_ms and
// the warm_start telemetry fields).
const basisCacheSize = 1024

// withDefaults returns the config with zero values replaced by defaults.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.DefaultSolveTimeout == 0 {
		c.DefaultSolveTimeout = DefaultSolveTimeoutValue
	}
	if c.MaxSolveTimeout <= 0 {
		c.MaxSolveTimeout = DefaultMaxSolveTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	return c
}

// ServiceError is the structured error of the serving layer: an HTTP
// status, a stable machine-readable code, and a human message. Handlers
// serialize it as {"error":{"code":…,"message":…}}.
type ServiceError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *ServiceError) Error() string { return e.Code + ": " + e.Message }

// The stable wire error codes. These are API: clients key retry logic
// off CodeQueueFull vs CodeDraining and monitoring keys off
// CodeUnsolvable vs CodeInternal, so every code written to the wire
// must be one of these constants (the errcode analyzer enforces it).
const (
	// CodeBadScenario rejects a request whose scenario fails validation.
	CodeBadScenario = "bad_scenario"
	// CodeBodyTooLarge rejects a request body over MaxBodyBytes.
	CodeBodyTooLarge = "body_too_large"
	// CodeQueueFull refuses admission when the queue is at capacity.
	CodeQueueFull = "queue_full"
	// CodeDeadlineExceeded reports a request deadline hit while queued
	// or solving.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeUnsolvable reports a problem-level solver failure (the
	// client's scenario, not the server).
	CodeUnsolvable = "unsolvable"
	// CodeInternal reports an unrecognized server fault.
	CodeInternal = "internal"
	// CodeDraining refuses admission during graceful shutdown.
	CodeDraining = "draining"
	// CodeMethodNotAllowed rejects a request with the wrong HTTP method.
	CodeMethodNotAllowed = "method_not_allowed"
)

// The structured error constructors, one per failure class.
func errBadScenario(err error) *ServiceError {
	return &ServiceError{Status: 400, Code: CodeBadScenario, Message: err.Error()}
}
func errBodyTooLarge(limit int64) *ServiceError {
	return &ServiceError{Status: 413, Code: CodeBodyTooLarge,
		Message: fmt.Sprintf("request body exceeds %d bytes", limit)}
}
func errQueueFull(depth int) *ServiceError {
	return &ServiceError{Status: 503, Code: CodeQueueFull,
		Message: fmt.Sprintf("admission queue full (%d scenarios deep); retry later", depth)}
}
func errDeadline() *ServiceError {
	return &ServiceError{Status: 504, Code: CodeDeadlineExceeded,
		Message: "request deadline exceeded while queued or solving"}
}

// errSolve classifies a solver failure by fault. Recognized problem-level
// failures — invalid or impossible scenarios and bad options
// (steadystate.ErrUnsolvable), infeasible or unbounded LPs — are the
// client's 400; anything unrecognized is a server fault and answers 500,
// telling clients a retry elsewhere may succeed and keeping error-rate
// monitoring honest.
func errSolve(err error) *ServiceError {
	if errors.Is(err, steadystate.ErrUnsolvable) ||
		errors.Is(err, lp.ErrInfeasible) || errors.Is(err, lp.ErrUnbounded) {
		return &ServiceError{Status: 400, Code: CodeUnsolvable, Message: err.Error()}
	}
	return &ServiceError{Status: 500, Code: CodeInternal, Message: err.Error()}
}
func errDraining() *ServiceError {
	return &ServiceError{Status: 503, Code: CodeDraining,
		Message: "server is draining; no new scenarios admitted"}
}

// CacheKey returns the scenario's identity in the serving layer: the
// platform content hash (hex) and the canonical spec key, joined. Two
// scenarios with equal keys produce bit-identical Reports, which is what
// makes the report cache sound.
func CacheKey(sc *steadystate.Scenario) (string, error) {
	h, err := sc.Platform.ContentHash()
	if err != nil {
		return "", err
	}
	specKey, err := sc.Spec.CanonicalKey()
	if err != nil {
		return "", fmt.Errorf("spec has no canonical form: %w", err)
	}
	return hex.EncodeToString(h[:]) + "|" + specKey, nil
}

// task is one admitted solve traveling from the handler to a worker.
type task struct {
	ctx      context.Context
	scenario *steadystate.Scenario
	key      string
	trace    bool
	enqueued time.Time
	// done receives exactly one result; buffered so a worker never blocks
	// on a waiter that gave up.
	done chan taskResult
}

// taskResult is a worker's answer to one task.
type taskResult struct {
	report *steadystate.Report
	err    error
}

// Server is one solver service instance: the admission queue, the worker
// pool, the report and basis caches and the telemetry. Create with
// New, expose with Handler, stop with Drain + Close.
type Server struct {
	cfg     Config
	queue   chan *task
	cache   *lru.Cache[*steadystate.Report]
	bases   *steadystate.BasisCache
	metrics *Metrics
	workers chan struct{} // closed when every worker has exited
	// The admission gate: draining refuses new admissions, admitters
	// counts handlers between admit() and their queue send. Close may only
	// close the queue once draining is set AND admitters has drained —
	// otherwise a handler that passed the gate could send on a closed
	// channel and panic.
	mu        sync.Mutex
	draining  bool
	admitters sync.WaitGroup
	closeOnce sync.Once
	// solveFn runs one admitted scenario, warm-started from bases; tests
	// substitute it to make queue timing deterministic.
	solveFn func(ctx context.Context, sc *steadystate.Scenario, bases *steadystate.BasisCache, trace bool) (*steadystate.Report, error)
	// logger receives the structured request log (nil: logging off).
	logger *slog.Logger
}

// New returns a running Server: workers are started and the handler
// returned by Handler can serve immediately.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.start()
	return s
}

// newServer builds the Server without starting its workers — the test
// seam that lets solveFn be replaced race-free.
func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *task, cfg.QueueDepth),
		cache:   lru.New[*steadystate.Report](cfg.CacheSize),
		bases:   steadystate.NewBasisCache(basisCacheSize),
		workers: make(chan struct{}),
	}
	s.metrics = newMetrics(func() int { return len(s.queue) })
	s.solveFn = solveScenario
	s.logger = cfg.Logger
	return s
}

// start launches the worker pool.
func (s *Server) start() {
	done := make(chan struct{}, s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			s.worker()
		}()
	}
	go func() {
		for i := 0; i < s.cfg.Workers; i++ {
			<-done
		}
		close(s.workers)
	}()
}

// solveScenario is the production solveFn: solve the scenario, warm-started
// from bases, and reduce the solution to its report, span-traced when
// asked.
func solveScenario(ctx context.Context, sc *steadystate.Scenario, bases *steadystate.BasisCache, trace bool) (*steadystate.Report, error) {
	opts := []steadystate.SolveOption{steadystate.WithBasisCache(bases)}
	if trace {
		opts = append(opts, steadystate.WithTrace())
	}
	sol, err := sc.Solve(ctx, opts...)
	if err != nil {
		return nil, err
	}
	return sol.Report()
}

// worker drains the admission queue until it is closed.
func (s *Server) worker() {
	for t := range s.queue {
		s.metrics.observeQueueWait(msSince(t.enqueued))
		if err := t.ctx.Err(); err != nil {
			// The waiter's deadline fired while the task was queued;
			// don't burn a solve nobody is waiting for.
			t.done <- taskResult{err: err}
			continue
		}
		rep, err := s.solveFn(t.ctx, t.scenario, s.bases, t.trace)
		if err != nil {
			t.done <- taskResult{err: err}
			continue
		}
		s.metrics.observeSolve(rep.SolveMS)
		switch {
		case rep.WarmStart:
			s.metrics.warmStart()
		case rep.WarmReject != "":
			s.metrics.warmReject()
		}
		s.cache.Put(t.key, rep)
		t.done <- taskResult{report: rep}
	}
}

// Metrics returns the server's telemetry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Drain marks the server as draining: /healthz flips to 503 (so load
// balancers stop routing here) and new scenarios are refused with a
// structured 503, while already-admitted solves run to completion. Call
// before http.Server.Shutdown; safe to call more than once.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// isDraining reports whether Drain was called.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// admit reserves the right to enqueue one task, refusing once Drain has
// run. On success the caller owes one s.admitters.Done() when its queue
// send completes or is abandoned — the refcount Close waits on before
// closing the queue.
func (s *Server) admit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.admitters.Add(1)
	return true
}

// Close shuts the worker pool down, completing every queued solve first,
// and blocks until the last worker has exited. It is safe even while
// handlers are still running — cmd/solverd's forced-shutdown and
// listener-error paths call it with requests possibly live: admission is
// revoked first, handlers already past the gate finish their enqueues
// before the queue is closed, and later Solve calls get the structured
// draining error. Safe to call more than once.
func (s *Server) Close() {
	s.Drain()
	s.closeOnce.Do(func() {
		s.admitters.Wait()
		close(s.queue)
	})
	<-s.workers
}

// Solve resolves one scenario through the cache and the admission queue:
// the programmatic core of the POST /solve handler. The returned bool
// reports whether the report came from the cache. block selects the
// admission discipline: false fails fast with a 503 ServiceError when the
// queue is full, true waits for queue space (or the context). Every error
// is a *ServiceError.
func (s *Server) Solve(ctx context.Context, sc *steadystate.Scenario, block bool) (*steadystate.Report, bool, error) {
	return s.solve(ctx, sc, block, false)
}

// solve is Solve plus the trace switch (the ?trace=1 handler path): a
// traced solve runs under WithTrace and returns a Report embedding its
// span tree. Traced reports cache under their own keyspace — they are a
// different byte stream than untraced reports, and the untraced path
// must stay byte-identical whether or not tracing is ever requested.
// A traced cache hit returns the cold solve's trace verbatim; the
// handler marks the served copy as replayed.
func (s *Server) solve(ctx context.Context, sc *steadystate.Scenario, block, trace bool) (*steadystate.Report, bool, error) {
	s.metrics.enter()
	defer s.metrics.leave()

	if sc == nil || sc.Platform == nil {
		s.metrics.badRequest()
		return nil, false, errBadScenario(errors.New("scenario has no platform"))
	}
	if sc.Spec.Kind == "" {
		s.metrics.badRequest()
		return nil, false, errBadScenario(errors.New("scenario has no spec (generate with topogen -spec)"))
	}
	key, err := CacheKey(sc)
	if err != nil {
		s.metrics.badRequest()
		return nil, false, errBadScenario(err)
	}
	if trace {
		// "|" cannot appear in a hex platform hash, so the suffix cannot
		// collide with an untraced key.
		key += "|trace"
	}

	if rep, ok := s.cache.Get(key); ok {
		s.metrics.hit()
		return rep, true, nil
	}
	s.metrics.miss()

	// The admission permit covers the window between the draining check
	// and the queue send, so Close cannot close the queue underneath us.
	if !s.admit() {
		return nil, false, errDraining()
	}
	t := &task{
		ctx:      ctx,
		scenario: sc,
		key:      key,
		trace:    trace,
		enqueued: time.Now(),
		done:     make(chan taskResult, 1),
	}
	if block {
		select {
		case s.queue <- t:
			s.admitters.Done()
		case <-ctx.Done():
			s.admitters.Done()
			s.metrics.deadline()
			return nil, false, errDeadline()
		}
	} else {
		select {
		case s.queue <- t:
			s.admitters.Done()
		default:
			s.admitters.Done()
			s.metrics.reject()
			return nil, false, errQueueFull(s.cfg.QueueDepth)
		}
	}

	select {
	case res := <-t.done:
		if res.err != nil {
			if errors.Is(res.err, context.DeadlineExceeded) || errors.Is(res.err, context.Canceled) {
				s.metrics.deadline()
				return nil, false, errDeadline()
			}
			s.metrics.solveFailed()
			return nil, false, errSolve(res.err)
		}
		return res.report, false, nil
	case <-ctx.Done():
		// The worker may still be solving; its context is ours, so the
		// simplex unwinds between pivots and the buffered done channel
		// absorbs the late result.
		s.metrics.deadline()
		return nil, false, errDeadline()
	}
}

// msSince mirrors internal/sweep's wall-clock convention.
func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
