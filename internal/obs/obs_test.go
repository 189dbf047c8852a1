package obs

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// TestNilSafety pins the package discipline: with no tracer installed,
// every call is a no-op on nil receivers and contexts pass through
// unchanged, so instrumented code never branches on "is tracing on".
func TestNilSafety(t *testing.T) {
	ctx := context.Background()
	if got := FromContext(ctx); got != nil {
		t.Fatalf("FromContext on a bare context = %v, want nil", got)
	}
	if got := WithTracer(ctx, nil); got != ctx {
		t.Fatal("WithTracer(ctx, nil) must return ctx unchanged")
	}
	ctx2, span := StartSpan(ctx, "stage")
	if ctx2 != ctx {
		t.Fatal("StartSpan without a tracer must return ctx unchanged")
	}
	if span != nil {
		t.Fatalf("StartSpan without a tracer = %v, want nil span", span)
	}

	// Every method of the nil receivers is a no-op, not a panic.
	span.SetAttr("k", 1)
	span.End()
	span.Walk(func(*Span) { t.Fatal("nil span Walk must not visit") })
	var tr *Tracer
	if tr.Root() != nil || tr.Finish() != nil {
		t.Fatal("nil tracer Root/Finish must return nil")
	}
	var trace *Trace
	if trace.WithoutTiming() != nil {
		t.Fatal("nil trace WithoutTiming must return nil")
	}
}

// TestSpanTreeStructure builds a small tree and pins parenting, child
// order, attribute storage and the idempotent End.
func TestSpanTreeStructure(t *testing.T) {
	tracer := NewTracer("solve")
	tracer.Root().SetAttr("kind", "scatter")
	ctx := WithTracer(context.Background(), tracer)

	if FromContext(ctx) != tracer {
		t.Fatal("FromContext must recover the installed tracer")
	}

	actx, a := StartSpan(ctx, "assemble")
	_, b := StartSpan(actx, "reachability") // child of a: derived context
	b.End()
	a.End()
	_, c := StartSpan(ctx, "lp.rows") // sibling of a: original context
	c.SetAttr("rows", 7)
	c.End()

	// End is idempotent: a second End must not overwrite the timing.
	timing := c.Timing
	if timing == nil {
		t.Fatal("End must fill the timing block")
	}
	c.End()
	if c.Timing != timing {
		t.Fatal("second End must not replace the timing block")
	}

	trace := tracer.Finish()
	root := trace.Root
	if root == nil || root != tracer.Root() {
		t.Fatal("Finish must return the trace rooted at Root()")
	}
	if root.Timing == nil {
		t.Fatal("Finish must end the root span")
	}
	if root.Attrs["kind"] != "scatter" {
		t.Fatalf("root kind attr = %v", root.Attrs["kind"])
	}
	if len(root.Children) != 2 || root.Children[0] != a || root.Children[1] != c {
		t.Fatalf("root children wrong: %+v", root.Children)
	}
	if len(a.Children) != 1 || a.Children[0] != b {
		t.Fatalf("assemble children wrong: %+v", a.Children)
	}
	if c.Attrs["rows"] != 7 {
		t.Fatalf("lp.rows attr = %v", c.Attrs["rows"])
	}
}

// TestWalkDepthFirst pins the DFS visit order aggregators rely on.
func TestWalkDepthFirst(t *testing.T) {
	tracer := NewTracer("root")
	ctx := WithTracer(context.Background(), tracer)
	actx, a := StartSpan(ctx, "a")
	StartSpan(actx, "a1")
	StartSpan(actx, "a2")
	a.End()
	StartSpan(ctx, "b")
	trace := tracer.Finish()

	var order []string
	trace.Root.Walk(func(s *Span) { order = append(order, s.Name) })
	want := []string{"root", "a", "a1", "a2", "b"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("walk order = %v, want %v", order, want)
	}
}

// TestWithoutTiming pins the golden projection: a deep copy with every
// timing block stripped, sharing nothing mutable with the original.
func TestWithoutTiming(t *testing.T) {
	tracer := NewTracer("solve")
	ctx := WithTracer(context.Background(), tracer)
	_, a := StartSpan(ctx, "assemble")
	a.SetAttr("vars", 12)
	a.End()
	trace := tracer.Finish()
	trace.ID = "req-1"
	trace.Replayed = true

	bare := trace.WithoutTiming()
	if bare.ID != "req-1" || !bare.Replayed {
		t.Fatalf("WithoutTiming must keep the trace identity: %+v", bare)
	}
	bare.Root.Walk(func(s *Span) {
		if s.Timing != nil {
			t.Fatalf("span %s kept its timing block", s.Name)
		}
	})
	// The original keeps its timings and is not aliased by the copy.
	trace.Root.Walk(func(s *Span) {
		if s.Timing == nil {
			t.Fatalf("original span %s lost its timing block", s.Name)
		}
	})
	bare.Root.Children[0].Attrs["vars"] = 99
	if a.Attrs["vars"] != 12 {
		t.Fatal("WithoutTiming must deep-copy attribute maps")
	}
}

// TestTraceJSONDeterminism pins that the timing-stripped projection
// serializes identically run over run (encoding/json sorts map keys, so
// attribute maps cannot leak iteration order).
func TestTraceJSONDeterminism(t *testing.T) {
	build := func() *Trace {
		tracer := NewTracer("solve")
		ctx := WithTracer(context.Background(), tracer)
		_, s := StartSpan(ctx, "lp.phase2")
		s.SetAttr("pivots", 3)
		s.SetAttr("objective", "7/2")
		s.SetAttr("degenerate_pivots", 2)
		s.End()
		return tracer.Finish()
	}
	a, err := json.Marshal(build().WithoutTiming())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(build().WithoutTiming())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("timing-stripped traces differ:\n%s\n%s", a, b)
	}
}
