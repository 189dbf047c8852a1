package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	steadystate "repro"
	"repro/internal/lp"
)

// testScenario builds a tiny solvable scenario; n distinguishes cache
// keys (distinct target sets → distinct canonical spec keys).
func testScenario(t *testing.T, n int) *steadystate.Scenario {
	t.Helper()
	p := steadystate.NewPlatform()
	src := p.AddNode("src", steadystate.R(1, 1))
	var targets []steadystate.NodeID
	for i := 0; i <= n; i++ {
		dst := p.AddNode("dst"+string(rune('a'+i)), steadystate.R(1, 1))
		p.AddLink(src, dst, steadystate.R(1, 4))
		targets = append(targets, dst)
	}
	return &steadystate.Scenario{Platform: p, Spec: steadystate.ScatterSpec(src, targets...)}
}

// blockedServer returns an unstarted server whose solves block until the
// returned release func runs (or their context dies), plus a channel that
// receives one value per solve a worker picked up.
func blockedServer(cfg Config) (*Server, chan struct{}, func()) {
	s := newServer(cfg)
	picked := make(chan struct{}, 64)
	release := make(chan struct{})
	s.solveFn = func(ctx context.Context, _ *steadystate.Scenario, _ *steadystate.BasisCache, _ bool) (*steadystate.Report, error) {
		picked <- struct{}{}
		select {
		case <-release:
			return &steadystate.Report{Kind: steadystate.KindScatter, Throughput: "1"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.start()
	var once bool
	return s, picked, func() {
		if !once {
			once = true
			close(release)
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	// One worker, queue depth one: the first solve occupies the worker,
	// the second fills the queue, the third is rejected with the
	// structured 503.
	s, picked, release := blockedServer(Config{Workers: 1, QueueDepth: 1, CacheSize: -1})
	defer func() { release(); s.Close() }()

	ctx := context.Background()
	type outcome struct {
		rep *steadystate.Report
		err error
	}
	results := make(chan outcome, 2)
	go func() {
		rep, _, err := s.Solve(ctx, testScenario(t, 0), false)
		results <- outcome{rep, err}
	}()
	<-picked // worker busy on solve 1

	go func() {
		rep, _, err := s.Solve(ctx, testScenario(t, 1), false)
		results <- outcome{rep, err}
	}()
	// Wait until solve 2 is parked in the queue.
	deadline := time.After(5 * time.Second)
	for len(s.queue) == 0 {
		select {
		case <-deadline:
			t.Fatal("second solve never reached the queue")
		case <-time.After(time.Millisecond):
		}
	}

	_, _, err := s.Solve(ctx, testScenario(t, 2), false)
	var se *ServiceError
	if !errors.As(err, &se) || se.Status != 503 || se.Code != "queue_full" {
		t.Fatalf("third solve: got %v, want structured 503 queue_full", err)
	}
	if got := s.metrics.Snapshot().QueueRejections; got != 1 {
		t.Fatalf("queue_rejections: got %d want 1", got)
	}

	release()
	for i := 0; i < 2; i++ {
		res := <-results
		if res.err != nil {
			t.Fatalf("blocked solve %d failed after release: %v", i, res.err)
		}
	}
}

func TestBlockingAdmissionWaits(t *testing.T) {
	// The batch discipline (block=true) waits for queue space instead of
	// rejecting.
	s, picked, release := blockedServer(Config{Workers: 1, QueueDepth: 1, CacheSize: -1})
	defer func() { release(); s.Close() }()

	done := make(chan error, 3)
	solve := func(n int) {
		_, _, err := s.Solve(context.Background(), testScenario(t, n), true)
		done <- err
	}
	go solve(0)
	<-picked
	go solve(1) // queued
	go solve(2) // blocked on admission — must NOT get a 503

	select {
	case err := <-done:
		t.Fatalf("a blocking solve returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatalf("blocking solve failed: %v", err)
		}
	}
}

func TestDeadlineExceeded(t *testing.T) {
	s, _, release := blockedServer(Config{Workers: 1, QueueDepth: 4, CacheSize: -1})
	defer func() { release(); s.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := s.Solve(ctx, testScenario(t, 0), false)
	var se *ServiceError
	if !errors.As(err, &se) || se.Status != 504 || se.Code != "deadline_exceeded" {
		t.Fatalf("got %v, want structured 504 deadline_exceeded", err)
	}
	if got := s.metrics.Snapshot().DeadlineExceeded; got == 0 {
		t.Fatal("deadline_exceeded counter did not move")
	}
}

func TestQueuedTaskSkippedWhenWaiterGone(t *testing.T) {
	// A task whose context dies while queued is answered without running
	// the solve: the worker pre-checks the context.
	s, picked, release := blockedServer(Config{Workers: 1, QueueDepth: 2, CacheSize: -1})
	defer func() { release(); s.Close() }()

	go s.Solve(context.Background(), testScenario(t, 0), false)
	<-picked // worker busy

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Solve(ctx, testScenario(t, 1), false)
		errc <- err
	}()
	deadline := time.After(5 * time.Second)
	for len(s.queue) == 0 {
		select {
		case <-deadline:
			t.Fatal("solve never queued")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled queued solve returned success")
	}
	release()
	// The skipped task must not have reached solveFn: exactly one pickup
	// (the first solve) may follow.
	select {
	case <-picked:
		t.Fatal("canceled task was solved anyway")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	s.Drain()
	_, _, err := s.Solve(context.Background(), testScenario(t, 0), false)
	var se *ServiceError
	if !errors.As(err, &se) || se.Status != 503 || se.Code != "draining" {
		t.Fatalf("got %v, want structured 503 draining", err)
	}
	s.Close()
}

func TestCloseCompletesQueuedWork(t *testing.T) {
	// Close drains the queue: a queued task is solved, not dropped.
	s, picked, release := blockedServer(Config{Workers: 1, QueueDepth: 2, CacheSize: -1})

	errs := make(chan error, 2)
	go func() { _, _, err := s.Solve(context.Background(), testScenario(t, 0), false); errs <- err }()
	<-picked
	go func() { _, _, err := s.Solve(context.Background(), testScenario(t, 1), false); errs <- err }()
	deadline := time.After(5 * time.Second)
	for len(s.queue) == 0 {
		select {
		case <-deadline:
			t.Fatal("solve never queued")
		case <-time.After(time.Millisecond):
		}
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}
	s.Close() // must return: workers exit once the queue is closed and empty
}

// TestCloseDuringAdmissionDoesNotPanic is the regression test for the
// shutdown race: Close used to close the admission queue while a handler
// could still sit between the draining check and its queue send — a
// send-on-closed-channel panic under cmd/solverd's forced-shutdown path.
// The admission refcount closes that window; late arrivals get the
// structured draining 503 instead.
func TestCloseDuringAdmissionDoesNotPanic(t *testing.T) {
	for round := 0; round < 25; round++ {
		s := newServer(Config{Workers: 2, QueueDepth: 1, CacheSize: -1})
		s.solveFn = func(context.Context, *steadystate.Scenario, *steadystate.BasisCache, bool) (*steadystate.Report, error) {
			return &steadystate.Report{Kind: steadystate.KindScatter, Throughput: "1"}, nil
		}
		s.start()

		const goroutines = 8
		scenarios := make([]*steadystate.Scenario, goroutines)
		for g := range scenarios {
			scenarios[g] = testScenario(t, g%3)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				_, _, err := s.Solve(context.Background(), scenarios[g], g%2 == 0)
				errs <- err
			}(g)
		}
		close(start)
		s.Close() // races the admissions above
		wg.Wait()
		close(errs)
		for err := range errs {
			if err == nil {
				continue
			}
			var se *ServiceError
			if !errors.As(err, &se) {
				t.Fatalf("round %d: unstructured error %v", round, err)
			}
			switch se.Code {
			case "draining", "queue_full":
			default:
				t.Fatalf("round %d: unexpected error %v", round, err)
			}
		}
	}
}

// TestSolveErrorClassification pins the fault classes at the Solve
// boundary: recognized problem-level failures answer 400 unsolvable,
// unrecognized solver faults answer 500 internal.
func TestSolveErrorClassification(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		code   string
	}{
		{"infeasible LP", fmt.Errorf("scatter: %w", lp.ErrInfeasible), 400, "unsolvable"},
		{"unbounded LP", fmt.Errorf("gossip: %w", lp.ErrUnbounded), 400, "unsolvable"},
		{"tagged unsolvable", fmt.Errorf("wrapped: %w", steadystate.ErrUnsolvable), 400, "unsolvable"},
		{"internal fault", errors.New("tableau corrupted"), 500, "internal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(Config{Workers: 1, CacheSize: -1})
			s.solveFn = func(context.Context, *steadystate.Scenario, *steadystate.BasisCache, bool) (*steadystate.Report, error) {
				return nil, tc.err
			}
			s.start()
			defer s.Close()
			_, _, err := s.Solve(context.Background(), testScenario(t, 0), false)
			var se *ServiceError
			if !errors.As(err, &se) || se.Status != tc.status || se.Code != tc.code {
				t.Fatalf("got %v, want %d %s", err, tc.status, tc.code)
			}
		})
	}
}

func TestSolveRejectsBadScenarios(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	cases := []struct {
		name string
		sc   *steadystate.Scenario
	}{
		{"nil scenario", nil},
		{"no platform", &steadystate.Scenario{}},
		{"no spec", &steadystate.Scenario{Platform: steadystate.NewPlatform()}},
	}
	for _, tc := range cases {
		_, _, err := s.Solve(context.Background(), tc.sc, false)
		var se *ServiceError
		if !errors.As(err, &se) || se.Status != 400 {
			t.Fatalf("%s: got %v, want structured 400", tc.name, err)
		}
	}
	if got := s.metrics.Snapshot().BadRequests; got != uint64(len(cases)) {
		t.Fatalf("bad_requests: got %d want %d", got, len(cases))
	}
}
