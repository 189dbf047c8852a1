package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	steadystate "repro"
)

const fixtureDir = "../../testdata/sweep"

// loadFixtureJobs loads the shared sweep fixtures: fig6 (reduce,
// reduce-scatter and allreduce), fig9 (reduce), tiers-42 (scatter,
// prefix and broadcast) and one deliberately malformed file.
func loadFixtureJobs(t *testing.T) []Job {
	t.Helper()
	jobs, err := LoadDir(fixtureDir, "*.json")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(jobs) < 7 {
		t.Fatalf("fixture dir has %d jobs, want at least 7", len(jobs))
	}
	return jobs
}

// normalize strips the wall-clock block and renders the deterministic
// body of a report as indented JSON for comparison.
func normalize(t *testing.T, r *steadystate.SweepReport) string {
	t.Helper()
	clone := *r
	clone.Timing = nil
	data, err := json.MarshalIndent(&clone, "", "  ")
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return string(data)
}

// TestSweepGolden pins the aggregated report over the testdata scenarios:
// ordering, exact throughputs, LP counters, platform dedup count and the
// failure entry for the malformed file must all stay stable.
func TestSweepGolden(t *testing.T) {
	report, err := Run(context.Background(), loadFixtureJobs(t), Options{Jobs: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := normalize(t, report)

	raw, err := os.ReadFile("../../testdata/sweep-golden.json")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	// Re-marshal the golden through the same struct so formatting details
	// of the checked-in file don't matter, only its content.
	var golden steadystate.SweepReport
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	want := normalize(t, &golden)
	if got != want {
		t.Errorf("sweep report drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if report.Timing == nil || report.Timing.WallMS <= 0 {
		t.Error("report should carry a timing block with positive wall time")
	}
	if report.Timing.SolveMaxMS < report.Timing.SolveP50MS {
		t.Errorf("timing percentiles inconsistent: max %v < p50 %v",
			report.Timing.SolveMaxMS, report.Timing.SolveP50MS)
	}
	if report.Platforms != 3 {
		t.Errorf("platforms = %d, want 3 (fig6, fig9, tiers42 each shared)", report.Platforms)
	}
}

// replayGolden is what testdata/sweep-replay-golden.json pins of a
// replaying sweep: every scenario's Lemma-1 verdict and the failure list.
// Regenerate it with
//
//	go run ./cmd/sweep -dir testdata/sweep -jobs 4 -simulate 40 |
//	  jq '{replay_failures: (.replay_failures // 0), results: [.results[] | {name, kind, replay}], failures}'
type replayGolden struct {
	ReplayFailures int `json:"replay_failures"`
	Results        []struct {
		Name   string                   `json:"name"`
		Kind   steadystate.Kind         `json:"kind"`
		Replay *steadystate.ReplayCheck `json:"replay"`
	} `json:"results"`
	Failures []*steadystate.SweepFailure `json:"failures"`
}

// TestSweepReplayGolden pins the replay verdicts of the whole fixture
// corpus: per scenario the period, warmup and depth bound, per sink set
// (per member for composites) the delivered count against its window.
func TestSweepReplayGolden(t *testing.T) {
	report, err := Run(context.Background(), loadFixtureJobs(t), Options{Jobs: 4, Simulate: 40})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	raw, err := os.ReadFile("../../testdata/sweep-replay-golden.json")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	project := func(what string, data []byte) string {
		var g replayGolden
		if err := json.Unmarshal(data, &g); err != nil {
			t.Fatalf("parse %s: %v", what, err)
		}
		out, err := json.MarshalIndent(&g, "", "  ")
		if err != nil {
			t.Fatalf("marshal %s: %v", what, err)
		}
		return string(out)
	}
	if got, want := project("report", data), project("golden", raw); got != want {
		t.Errorf("replay verdicts drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSweepJobsInvariance: the aggregate must not depend on worker count.
func TestSweepJobsInvariance(t *testing.T) {
	jobs := loadFixtureJobs(t)
	seq, err := Run(context.Background(), jobs, Options{Jobs: 1})
	if err != nil {
		t.Fatalf("Run jobs=1: %v", err)
	}
	par, err := Run(context.Background(), jobs, Options{Jobs: 8})
	if err != nil {
		t.Fatalf("Run jobs=8: %v", err)
	}
	if a, b := normalize(t, seq), normalize(t, par); a != b {
		t.Errorf("-jobs 1 and -jobs 8 aggregates differ:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", a, b)
	}
}

// TestSweepShardUnion: complementary shards partition the batch and their
// reports union to the full result set.
func TestSweepShardUnion(t *testing.T) {
	jobs := loadFixtureJobs(t)
	full, err := Run(context.Background(), jobs, Options{Jobs: 4})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	union := &steadystate.SweepReport{}
	for i := 0; i < 2; i++ {
		part, err := Run(context.Background(), jobs, Options{Jobs: 4, ShardIndex: i, ShardCount: 2})
		if err != nil {
			t.Fatalf("shard %d/2: %v", i, err)
		}
		if want := "0/2"; i == 0 && part.Shard != want {
			t.Errorf("shard label = %q, want %q", part.Shard, want)
		}
		if part.Scenarios == 0 {
			t.Errorf("shard %d/2 is empty; expected the batch to split", i)
		}
		union.Results = append(union.Results, part.Results...)
		union.Failures = append(union.Failures, part.Failures...)
	}
	if _, err := union.Aggregate(); err != nil {
		t.Fatalf("aggregate union: %v", err)
	}
	// Platforms counts distinct topologies per process — two shards that
	// split a platform's scenarios both count it, so the counter is
	// per-run, not unionable. Everything else must union exactly.
	union.Platforms = full.Platforms
	if got, want := normalize(t, union), normalize(t, full); got != want {
		t.Errorf("shard union differs from full run:\n--- union ---\n%s\n--- full ---\n%s", got, want)
	}
}

// TestAggregateOrderIndependent: files of different directories share
// base names, so a batch can hold several results per name. Any
// permutation of the same results and failures must aggregate to the same
// bytes, and the failed replay verdicts (a failed window, a replay that
// could not run) are counted.
func TestAggregateOrderIndependent(t *testing.T) {
	kinds := []steadystate.Kind{steadystate.KindScatter, steadystate.KindBroadcast, steadystate.KindReduce}
	failed := []*steadystate.ReplayCheck{
		{Periods: 5, Windows: []steadystate.ReplayWindow{{Kind: steadystate.KindScatter, Delivered: "9", Reason: "pipeline never reached a full period"}}},
		{Periods: 5, Error: "simulate: sim: model period must be positive"},
	}
	var results []*steadystate.SweepResult
	var failures []*steadystate.SweepFailure
	for n := 0; n < 8; n++ {
		name := fmt.Sprintf("tiers-%04d.json", n)
		for k, kind := range kinds {
			results = append(results, &steadystate.SweepResult{
				Name: name, Kind: kind, Throughput: fmt.Sprintf("%d/7", n+k+1), Period: "7",
				LPVars: 10*n + k, LPPivots: n * k, LPDensity: 1 / float64(n+k+1),
			})
			if n < len(failed) && k == 0 {
				results[len(results)-1].Replay = failed[n]
			}
			failures = append(failures, &steadystate.SweepFailure{Name: name, Error: fmt.Sprintf("error %d", k)})
		}
	}
	aggregate := func(reverse bool) string {
		t.Helper()
		r := &steadystate.SweepReport{}
		for i := range results {
			j := i
			if reverse {
				j = len(results) - 1 - i
			}
			r.Results = append(r.Results, results[j])
			r.Failures = append(r.Failures, failures[j])
		}
		if _, err := r.Aggregate(); err != nil {
			t.Fatalf("Aggregate: %v", err)
		}
		if r.ReplayFailures != len(failed) {
			t.Errorf("replay_failures = %d, want %d", r.ReplayFailures, len(failed))
		}
		return normalize(t, r)
	}
	if forward, backward := aggregate(false), aggregate(true); forward != backward {
		t.Errorf("aggregate depends on input order:\n--- forward ---\n%s\n--- reversed ---\n%s", forward, backward)
	}
}

// TestSweepShardErrors: out-of-range shard selections fail loudly.
func TestSweepShardErrors(t *testing.T) {
	jobs := []Job{{Name: "x"}}
	// {3, 0}: a nonzero index with a forgotten ShardCount must not
	// silently sweep the full batch.
	for _, bad := range [][2]int{{2, 2}, {-1, 2}, {1, 1}, {3, 0}} {
		if _, err := Shard(jobs, bad[0], bad[1]); err == nil {
			t.Errorf("Shard(index=%d, count=%d) should fail", bad[0], bad[1])
		}
	}
}

// TestShardIndependentOfLoadOrder: files of different directories share
// base names, so the order of a shard cannot rest on names alone. The
// same four tiers-0000.json files, listed in either order, must deal the
// same shard 0, and shards 0 and 1 must partition the batch.
func TestShardIndependentOfLoadOrder(t *testing.T) {
	var forward []Job
	for _, dir := range []string{"allreduce", "scatter", "./broadcast", "gossip/"} {
		forward = append(forward, Job{Name: "tiers-0000.json", Path: dir + "/tiers-0000.json"})
	}
	backward := slices.Clone(forward)
	slices.Reverse(backward)
	paths := func(jobs []Job) []string {
		var out []string
		for _, j := range jobs {
			out = append(out, filepath.Clean(j.Path))
		}
		return out
	}
	var shards [2][]string
	for i := range shards {
		a, err := Shard(forward, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Shard(backward, i, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(paths(a), paths(b)) {
			t.Errorf("shard %d/2 depends on the argument order: %v forward, %v backward", i, paths(a), paths(b))
		}
		shards[i] = paths(a)
	}
	union := append(slices.Clone(shards[0]), shards[1]...)
	slices.Sort(union)
	if want := []string{"allreduce/tiers-0000.json", "broadcast/tiers-0000.json", "gossip/tiers-0000.json", "scatter/tiers-0000.json"}; !slices.Equal(union, want) {
		t.Errorf("shards 0/2 and 1/2 hold %v and %v; want a partition of %v", shards[0], shards[1], want)
	}
}

// cancelAfterFirstWrite is a JSONL sink that cancels the sweep context as
// soon as the first line lands.
type cancelAfterFirstWrite struct {
	mu     sync.Mutex
	cancel context.CancelFunc
	buf    bytes.Buffer
	lines  int
}

func (c *cancelAfterFirstWrite) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lines++
	c.buf.Write(p)
	c.cancel()
	return len(p), nil
}

// TestSweepCancellation: canceling mid-sweep stops the workers, returns
// the context error, and still flushes the completed scenarios' JSONL
// lines plus a partial aggregate.
func TestSweepCancellation(t *testing.T) {
	// A batch big enough that it cannot finish before the cancel: only
	// the in-flight solves (≤ Jobs) may complete after the first record.
	p := steadystate.Tiers(steadystate.DefaultTiersConfig(42))
	parts := p.Participants()
	var jobs []Job
	for i := 0; i < 12; i++ {
		src := parts[i%len(parts)]
		var targets []steadystate.NodeID
		for d := 1; d <= 3; d++ {
			targets = append(targets, parts[(i+d)%len(parts)])
		}
		jobs = append(jobs, Job{
			Name:     filepath.Join("mem", string(rune('a'+i))+".json"),
			Scenario: &steadystate.Scenario{Platform: p, Spec: steadystate.ScatterSpec(src, targets...)},
		})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelAfterFirstWrite{cancel: cancel}
	report, err := Run(ctx, jobs, Options{Jobs: 2, JSONL: sink})
	if err == nil {
		t.Fatal("Run should return the context error after a mid-sweep cancel")
	}
	if report == nil {
		t.Fatal("Run should return the partial report alongside the context error")
	}
	if report.Scenarios == 0 {
		t.Error("partial report should contain the scenarios completed before the cancel")
	}
	if report.Scenarios >= len(jobs) {
		t.Errorf("report covers %d of %d scenarios; cancel should have cut the sweep short",
			report.Scenarios, len(jobs))
	}
	if sink.lines != report.Scenarios {
		t.Errorf("JSONL has %d lines for %d reported scenarios", sink.lines, report.Scenarios)
	}
	// Every flushed line must be a complete, parseable record.
	for _, line := range strings.Split(strings.TrimSpace(sink.buf.String()), "\n") {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Errorf("partial JSONL line does not parse: %v (%q)", err, line)
		}
	}
}

// TestSweepMatchesColdSolves: every swept result is bit-identical to a
// cold solve of its scenario (the golden pins the distinct-platform
// count).
func TestSweepMatchesColdSolves(t *testing.T) {
	jobs := loadFixtureJobs(t)
	report, err := Run(context.Background(), jobs, Options{Jobs: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, res := range report.Results {
		var job *Job
		for i := range jobs {
			if jobs[i].Name == res.Name {
				job = &jobs[i]
				break
			}
		}
		if job == nil || job.Scenario == nil {
			t.Fatalf("result %s has no loadable job", res.Name)
		}
		sol, err := job.Scenario.Solve(context.Background())
		if err != nil {
			t.Fatalf("cold solve %s: %v", res.Name, err)
		}
		if got := sol.Throughput().RatString(); got != res.Throughput {
			t.Errorf("%s: sweep TP %s != cold TP %s", res.Name, res.Throughput, got)
		}
	}
}

// TestSweepSolveTimeout: an impossible per-solve deadline turns every
// solvable scenario into a failure, never an aborted run.
func TestSweepSolveTimeout(t *testing.T) {
	jobs := loadFixtureJobs(t)
	report, err := Run(context.Background(), jobs, Options{Jobs: 2, SolveTimeout: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if report.Solved != 0 {
		t.Errorf("%d scenarios solved under a 1ns deadline", report.Solved)
	}
	if report.Failed != report.Scenarios {
		t.Errorf("failed %d of %d; every scenario should fail under the deadline",
			report.Failed, report.Scenarios)
	}
}

// TestLoadDirErrors: only unlistable directories and malformed globs are
// hard errors; malformed files come back as failed jobs.
func TestLoadDirErrors(t *testing.T) {
	if _, err := LoadDir(filepath.Join(t.TempDir(), "absent"), "*.json"); err == nil {
		t.Error("LoadDir on a missing directory should fail")
	}
	if _, err := LoadDir(fixtureDir, "[bad"); err == nil {
		t.Error("LoadDir with a malformed glob should fail")
	}
	dir := t.TempDir()
	job := LoadFile(filepath.Join(dir, "absent.json"))
	if job.Err == nil {
		t.Error("LoadFile on a missing file should record an error on the job")
	} else if strings.Contains(job.Err.Error(), dir) {
		// Failure lists must be launch-directory independent, so shard
		// reports union and goldens stay stable wherever the sweep runs.
		t.Errorf("read-error message leaks the directory path: %q", job.Err)
	}
}

// TestSweepTraceStream: a traced sweep writes one TraceRecord per solved
// result, with the result's name and kind, whose lp.phase1 span holds the
// result's lp_phase1_pivots and whose two phase spans sum to its
// lp_pivots. The report and the result stream are those of an untraced
// sweep, apart from wall-clock fields.
func TestSweepTraceStream(t *testing.T) {
	jobs := loadFixtureJobs(t)
	var plainLog, tracedLog, traces bytes.Buffer
	plain, err := Run(context.Background(), jobs, Options{Jobs: 1, JSONL: &plainLog})
	if err != nil {
		t.Fatalf("untraced Run: %v", err)
	}
	traced, err := Run(context.Background(), jobs, Options{Jobs: 1, JSONL: &tracedLog, Trace: &traces})
	if err != nil {
		t.Fatalf("traced Run: %v", err)
	}
	if a, b := normalize(t, plain), normalize(t, traced); a != b {
		t.Errorf("tracing changed the report:\n--- untraced ---\n%s\n--- traced ---\n%s", a, b)
	}
	if a, b := untimedRecords(t, &plainLog), untimedRecords(t, &tracedLog); a != b {
		t.Errorf("tracing changed the result stream:\n--- untraced ---\n%s\n--- traced ---\n%s", a, b)
	}

	byName := make(map[string]TraceRecord)
	for _, line := range strings.Split(strings.TrimSpace(traces.String()), "\n") {
		var rec TraceRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if _, dup := byName[rec.Name]; dup {
			t.Errorf("%s: traced twice", rec.Name)
		}
		byName[rec.Name] = rec
	}
	if len(byName) != len(traced.Results) {
		t.Errorf("%d trace records for %d solved results", len(byName), len(traced.Results))
	}
	phase1 := 0
	for _, res := range traced.Results {
		rec, ok := byName[res.Name]
		switch {
		case !ok:
			t.Errorf("%s: no trace record", res.Name)
			continue
		case rec.Kind != res.Kind:
			t.Errorf("%s: trace kind %s, result kind %s", res.Name, rec.Kind, res.Kind)
		}
		p1, p2 := phasePivots(t, rec.Trace)
		if p1 != res.LPPhase1Pivots {
			t.Errorf("%s: lp.phase1 pivots %d, lp_phase1_pivots %d", res.Name, p1, res.LPPhase1Pivots)
		}
		if p1+p2 != res.LPPivots {
			t.Errorf("%s: phase pivots %d+%d, lp_pivots %d", res.Name, p1, p2, res.LPPivots)
		}
		phase1 += p1
	}
	if len(traced.Results) == 0 || phase1 == 0 {
		t.Fatalf("%d results with %d phase-1 pivots: the reconciliation shows nothing", len(traced.Results), phase1)
	}
}

// untimedRecords renders a result stream without its wall-clock fields,
// one record per line in name order.
func untimedRecords(t *testing.T, log *bytes.Buffer) string {
	t.Helper()
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		rec.SolveMS = 0
		if rec.Report != nil {
			rec.Report.SolveMS = 0
		}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(data))
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// phasePivots sums the "pivots" attributes of a trace's lp.phase1 and
// lp.phase2 spans, as a trace read back from JSON holds them.
func phasePivots(t *testing.T, tr *steadystate.Trace) (phase1, phase2 int) {
	t.Helper()
	if tr == nil {
		t.Fatal("trace record without a trace")
	}
	tr.Root.Walk(func(s *steadystate.Span) {
		if s.Name != "lp.phase1" && s.Name != "lp.phase2" {
			return
		}
		n, ok := s.Attrs["pivots"].(float64)
		if !ok {
			t.Errorf("%s span without pivots: %v", s.Name, s.Attrs)
		}
		if s.Name == "lp.phase1" {
			phase1 += int(n)
		} else {
			phase2 += int(n)
		}
	})
	return phase1, phase2
}
