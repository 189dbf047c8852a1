// Package obs is the solve-tracing layer: a context-carried, nil-safe
// span API producing one deterministic span tree per solve.
//
// A Tracer is rooted at the edge of the system (steadystate.Solver.Solve,
// internal/serve, cmd/sweep) and travels down the solver stack inside the
// context — WithTracer installs it, FromContext recovers it, StartSpan
// opens a child of the context's current span. Library code never mints
// tracers of its own (the obsflow analyzer enforces this): with no tracer
// in the context every call is a no-op on nil receivers, so the hot path
// pays only a context lookup per solve and a nil check per pivot.
//
// Trace structure is deterministic by construction: span names, child
// order and attributes are functions of the scenario alone, while every
// wall-clock measurement is segregated into the span's Timing block —
// exactly the SweepReport discipline — so traces golden-compare modulo
// timing (see WithoutTiming).
package obs

import (
	"context"
	"time"
)

// Timing is a span's wall-clock block: milliseconds since the trace
// root started, and the span's duration. It is the only
// nondeterministic part of a trace and is kept separable so goldens can
// strip it (WithoutTiming).
type Timing struct {
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// Span is one node of the trace tree: a named stage of the solve with
// exact structural attributes and an optional timing block. Child order
// is call order, which the solver keeps deterministic.
type Span struct {
	Name     string         `json:"name"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Timing   *Timing        `json:"timing,omitempty"`
	Children []*Span        `json:"children,omitempty"`

	tracer *Tracer
	start  time.Time
}

// Trace is one finished solve trace: the span tree plus serving-layer
// identity (ID assigned per request by solverd, Replayed marking a
// cache hit whose spans describe the original solve, not this request).
type Trace struct {
	ID       string `json:"id,omitempty"`
	Replayed bool   `json:"replayed,omitempty"`
	Root     *Span  `json:"root"`
}

// Tracer collects one solve's span tree. A nil *Tracer is the no-op
// tracer: every method is nil-safe, as is every method of the nil
// *Span, so instrumented code never branches on "is tracing on".
type Tracer struct {
	epoch time.Time
	root  *Span
}

// NewTracer starts a trace whose root span has the given name. The
// root is open until Finish.
func NewTracer(rootName string) *Tracer {
	now := time.Now()
	t := &Tracer{epoch: now}
	t.root = &Span{Name: rootName, tracer: t, start: now}
	return t
}

// Root returns the trace's root span (nil on the nil tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span and returns the completed trace (nil on
// the nil tracer).
func (t *Tracer) Finish() *Trace {
	if t == nil {
		return nil
	}
	t.root.End()
	return &Trace{Root: t.root}
}

// tracerKey carries the *Tracer in a context; spanKey carries the
// context's current parent span.
type tracerKey struct{}
type spanKey struct{}

// WithTracer returns ctx carrying the tracer, with the root span as the
// current parent for StartSpan. A nil tracer leaves ctx unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	ctx = context.WithValue(ctx, tracerKey{}, t)
	return context.WithValue(ctx, spanKey{}, t.root)
}

// FromContext returns the context's tracer, or nil when no trace is
// active — the no-op tracer, per the package discipline.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// StartSpan opens a child span under the context's current span and
// returns a derived context in which the new span is the parent. With
// no tracer in ctx it returns ctx unchanged and a nil span; the caller
// uses the returned span unconditionally (nil methods no-op) and must
// End it when the stage completes.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	tr, _ := ctx.Value(tracerKey{}).(*Tracer)
	if tr == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		parent = tr.root
	}
	s := &Span{Name: name, tracer: tr, start: time.Now()}
	parent.Children = append(parent.Children, s)
	return context.WithValue(ctx, spanKey{}, s), s
}

// SetAttr records one structural attribute on the span (no-op on nil).
// Values must be deterministic functions of the scenario — counts,
// exact rational strings, attribute structs — never wall-clock data,
// which belongs in the Timing block.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]any)
	}
	s.Attrs[key] = v
}

// End closes the span, filling its timing block (no-op on nil and on a
// span already ended).
func (s *Span) End() {
	if s == nil || s.Timing != nil {
		return
	}
	now := time.Now()
	s.Timing = &Timing{
		StartMS: float64(s.start.Sub(s.tracer.epoch)) / float64(time.Millisecond),
		DurMS:   float64(now.Sub(s.start)) / float64(time.Millisecond),
	}
}

// WithoutTiming returns a deep copy of the trace with every span's
// timing block removed — the golden-comparable projection.
func (tr *Trace) WithoutTiming() *Trace {
	if tr == nil {
		return nil
	}
	return &Trace{ID: tr.ID, Replayed: tr.Replayed, Root: tr.Root.withoutTiming()}
}

// withoutTiming deep-copies the span subtree minus timing.
func (s *Span) withoutTiming() *Span {
	if s == nil {
		return nil
	}
	cp := &Span{Name: s.Name}
	if len(s.Attrs) > 0 {
		cp.Attrs = make(map[string]any, len(s.Attrs))
		for k, v := range s.Attrs {
			cp.Attrs[k] = v
		}
	}
	for _, c := range s.Children {
		cp.Children = append(cp.Children, c.withoutTiming())
	}
	return cp
}

// Walk visits the span and its subtree in depth-first order (no-op on
// nil), for aggregators like sscollect -op trace.
func (s *Span) Walk(visit func(*Span)) {
	if s == nil {
		return
	}
	visit(s)
	for _, c := range s.Children {
		c.Walk(visit)
	}
}
