// Package sweep is the sharded scenario-sweep engine of the steady-state
// framework: it takes a batch of Scenario files (cmd/topogen -count can
// generate one from a single seed), fans them out over a bounded worker
// pool, and aggregates the outcomes into a deterministic
// steadystate.SweepReport plus an optional streaming JSONL result log.
//
// The engine is built for fleets of scenarios rather than single solves:
//
//   - Platforms are deduplicated by content hash, so scenarios that share
//     a topology share one concurrency-safe Solver session (and with it
//     the memoized reachability index behind validation and LP pruning).
//   - Every solve runs under a per-solve context deadline; one malformed
//     file or one timed-out solve lands in the report's failure list
//     instead of aborting the run.
//   - Shard i of n (deterministic round-robin over the job list sorted
//     by name, then path) lets independent processes split one batch;
//     their reports union to the full result set.
//   - Cancellation of the run context stops the workers between solves
//     and inside the simplex loop; results completed before the cancel
//     are already flushed to the JSONL log and appear in the partial
//     report Run returns alongside the context error.
//   - With Options.Simulate, each worker replays the scenario it just
//     solved and checks it against its Lemma-1 window
//     (steadystate.CheckReplay); the report carries every verdict and
//     counts the failed ones.
//
// Everything in the report except its Timing block is deterministic:
// -jobs 1 and -jobs 8 runs of the same batch produce identical
// aggregates. The report groups per-kind statistics (exact
// min/mean/max throughput, summed LP cost counters) for every
// collective kind in the batch — scatter through allreduce and
// broadcast — so mixed-kind corpora split cleanly in trend analysis.
package sweep

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	steadystate "repro"
)

// Job is one scenario of a sweep. Either Scenario is set, or Err records
// why loading it failed (the sweep reports it as a failure and moves on).
type Job struct {
	// Name identifies the job in results, failures and the JSONL log;
	// loaders use the file base name. Results sort by name; jobs that
	// share one (files of different directories) sort by their outcomes.
	Name string
	// Path is the source file, when the job came from one. Besides
	// diagnostics, it orders jobs that share a name (Shard).
	Path string
	// Scenario is the parsed platform + spec to solve.
	Scenario *steadystate.Scenario
	// Err marks a job that failed to load; it is reported as a failure
	// without being solved.
	Err error
}

// LoadFile loads one scenario file into a Job. Load errors are recorded
// on the job, not returned: a sweep treats an unreadable or malformed
// file as one more failed scenario.
func LoadFile(path string) Job {
	job := Job{Name: filepath.Base(path), Path: path}
	data, err := os.ReadFile(path)
	if err != nil {
		// Strip the os error's embedded path down to its cause: failure
		// lists must not depend on where the sweep was launched from.
		cause := err.Error()
		var pe *fs.PathError
		if errors.As(err, &pe) {
			cause = pe.Err.Error()
		}
		job.Err = fmt.Errorf("read %s: %s", job.Name, cause)
		return job
	}
	// Error messages reference the base name, not the path, for the same
	// launch-directory independence.
	sc := &steadystate.Scenario{}
	if err := json.Unmarshal(data, sc); err != nil {
		job.Err = fmt.Errorf("parse %s: %w", job.Name, err)
		return job
	}
	if sc.Spec.Kind == "" {
		job.Err = fmt.Errorf("parse %s: scenario has no spec (generate with topogen -spec)", job.Name)
		return job
	}
	job.Scenario = sc
	return job
}

// LoadFiles loads each path into a Job, in order.
func LoadFiles(paths []string) []Job {
	jobs := make([]Job, 0, len(paths))
	for _, p := range paths {
		jobs = append(jobs, LoadFile(p))
	}
	return jobs
}

// LoadDir loads every file of dir whose base name matches the glob
// pattern (default "*.json"). The error is non-nil only when the
// directory itself cannot be listed or the pattern is malformed —
// individual files that fail to parse come back as failed Jobs.
func LoadDir(dir, glob string) ([]Job, error) {
	if glob == "" {
		glob = "*.json"
	}
	if _, err := filepath.Match(glob, ""); err != nil {
		return nil, fmt.Errorf("sweep: bad glob %q: %w", glob, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if ok, _ := filepath.Match(glob, e.Name()); ok {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	return LoadFiles(paths), nil
}

// Options configures a sweep run.
type Options struct {
	// Jobs bounds the number of concurrent solves; ≤ 0 means
	// runtime.GOMAXPROCS(0).
	Jobs int
	// SolveTimeout bounds each individual solve; 0 means no per-solve
	// deadline (the run context still applies).
	SolveTimeout time.Duration
	// ShardIndex/ShardCount select shard i of n: the job list, sorted by
	// name and then path, is dealt round-robin, job j going to shard
	// j mod n. ShardCount ≤ 1 disables sharding.
	ShardIndex, ShardCount int
	// JSONL, when non-nil, receives one JSON line per completed scenario
	// (in completion order — the deterministic view is the report). Each
	// line is written with a single Write call.
	JSONL io.Writer
	// Trace, when non-nil, enables WithTrace on every solve and receives
	// one TraceRecord JSON line per solved scenario (in completion order).
	// The trace is stripped from the report before aggregation, so the
	// sweep report and the JSONL stream are those of an untraced sweep,
	// apart from their wall-clock fields.
	Trace io.Writer
	// Warm enables warm-started chain sweeps: the name-sorted jobs are
	// grouped into perturbation chains by name stem (topogen -perturb
	// emits <base>-pNN.json files; the -pNN suffix is stripped), each
	// chain is solved sequentially through one private basis cache so
	// every solve after the chain head can warm-start from its
	// predecessor's certified basis, and distinct chains run in parallel
	// across the worker pool — the parallel schedule never changes which
	// basis a solve sees, so reports stay deterministic under -jobs.
	// Throughputs and periods are bit-identical to a cold sweep; only the
	// pivot counters and the warm_start telemetry fields differ. Sharding
	// deals jobs round-robin and so splits chains across shards — shard a
	// warm sweep only if partial warmth per shard is acceptable.
	Warm bool
	// Simulate, when positive, replays every solved scenario for this many
	// periods, on the solution its worker just computed, and attaches the
	// Lemma-1 verdict (steadystate.CheckReplay) to its result; the report
	// counts the failed verdicts. A replay that cannot run is a failed
	// verdict. Zero skips the replay; a negative count is rejected.
	Simulate int
}

// Record is one line of the JSONL stream: the scenario name plus either
// its full solution report or the error that failed it. SolveMS and
// LPNonZeros are always at the top level — duplicating the solved report's
// fields — so stream consumers read flat fields for offline solve-time and
// density analysis without digging into the nested report (and shard logs
// stay self-contained even when the report is absent).
type Record struct {
	Name       string              `json:"name"`
	SolveMS    float64             `json:"solve_ms,omitempty"`
	LPNonZeros int                 `json:"lp_nonzeros,omitempty"`
	Report     *steadystate.Report `json:"report,omitempty"`
	Error      string              `json:"error,omitempty"`
}

// TraceRecord is one line of the trace JSONL stream: the scenario name
// and kind plus the span-structured solve trace. Trace structure and
// attributes are deterministic; only the spans' timing blocks vary
// across runs.
type TraceRecord struct {
	Name  string             `json:"name"`
	Kind  steadystate.Kind   `json:"kind"`
	Trace *steadystate.Trace `json:"trace"`
}

// runState is the shared accumulator of one Run: the mutex serializes
// both the JSONL stream and the result/failure slices.
type runState struct {
	mu        sync.Mutex
	opts      *Options
	results   []*steadystate.SweepResult
	failures  []*steadystate.SweepFailure
	durations []float64 // solve ms, solved scenarios only
}

// record logs one completed scenario: a JSONL line (if streaming) plus
// the aggregate entry.
func (st *runState) record(name string, rep *steadystate.Report, replay *steadystate.ReplayCheck, solveMS float64, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec := Record{Name: name, SolveMS: solveMS, Report: rep}
	if rep != nil {
		rec.LPNonZeros = rep.LPNonZeros
	}
	if err != nil {
		rec.Error = err.Error()
		st.failures = append(st.failures, &steadystate.SweepFailure{Name: name, Error: err.Error()})
	} else {
		res := steadystate.SweepResultOf(name, rep)
		res.Replay = replay
		st.results = append(st.results, res)
		st.durations = append(st.durations, solveMS)
	}
	if st.opts.JSONL != nil {
		// Encoding a Record cannot fail (no custom marshalers on the
		// error path; Report marshaling is exercised by every cmd), and a
		// failed Write must not fail the sweep — the report is the
		// authoritative output.
		if line, err := json.Marshal(rec); err == nil {
			st.opts.JSONL.Write(append(line, '\n'))
		}
	}
}

// recordTrace streams one solved scenario's trace as a TraceRecord JSONL
// line, serialized under the same mutex as the result stream. Traces are
// recorded on their own writer — never in the report — so everything
// else stays byte-stable with tracing on.
func (st *runState) recordTrace(name string, kind steadystate.Kind, tr *steadystate.Trace) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if line, err := json.Marshal(TraceRecord{Name: name, Kind: kind, Trace: tr}); err == nil {
		st.opts.Trace.Write(append(line, '\n'))
	}
}

// Shard returns the jobs of shard index among count shards: the input is
// sorted by name, then by cleaned Path (files of different directories
// can share a name), and dealt round-robin, so complementary shards
// partition the batch deterministically regardless of load order.
// count ≤ 1 returns the full sorted batch.
func Shard(jobs []Job, index, count int) ([]Job, error) {
	// Unsharded runs (count 0 or 1) only accept index 0 — a nonzero index
	// with a forgotten count is a misconfigured shard worker that would
	// otherwise re-solve the whole batch.
	if index < 0 || index >= max(count, 1) {
		return nil, fmt.Errorf("sweep: shard index %d out of range for %d shard(s)", index, count)
	}
	sorted := slices.Clone(jobs)
	slices.SortStableFunc(sorted, func(a, b Job) int {
		return cmp.Or(strings.Compare(a.Name, b.Name), strings.Compare(filepath.Clean(a.Path), filepath.Clean(b.Path)))
	})
	if count <= 1 {
		return sorted, nil
	}
	var out []Job
	for i, job := range sorted {
		if i%count == index {
			out = append(out, job)
		}
	}
	return out, nil
}

// sessions builds one Solver per distinct platform topology: platforms
// are deduplicated by Platform.ContentHash, and jobs whose platforms hash
// equally share the session (node IDs are insertion-ordered and stable
// across the JSON round trip, so a spec from one copy is valid against
// another byte-identical copy). Returns the per-job session list and the
// number of distinct platforms.
func sessions(jobs []Job) ([]*steadystate.Solver, int) {
	solvers := make([]*steadystate.Solver, len(jobs))
	byHash := make(map[[sha256.Size]byte]*steadystate.Solver)
	for i, job := range jobs {
		if job.Scenario == nil {
			continue
		}
		h, err := job.Scenario.Platform.ContentHash()
		if err != nil {
			// Unhashable platform: fall back to a private session rather
			// than failing a solvable scenario.
			solvers[i] = steadystate.NewSolver(job.Scenario.Platform)
			continue
		}
		if s, ok := byHash[h]; ok {
			solvers[i] = s
			continue
		}
		s := steadystate.NewSolver(job.Scenario.Platform)
		byHash[h] = s
		solvers[i] = s
	}
	return solvers, len(byHash)
}

// ChainKey returns the perturbation-chain key of a scenario name: the
// name stem with any trailing -pNN perturbation suffix (as emitted by
// topogen -perturb) stripped, so a base scenario and its perturbed
// variants share a key. Warm sweeps group jobs by it; cmd/sscollect -op
// warm groups result records the same way.
func ChainKey(name string) string {
	stem := strings.TrimSuffix(name, filepath.Ext(name))
	if i := strings.LastIndex(stem, "-p"); i >= 0 && i+2 < len(stem) {
		allDigits := true
		for _, r := range stem[i+2:] {
			if r < '0' || r > '9' {
				allDigits = false
				break
			}
		}
		if allDigits {
			return stem[:i]
		}
	}
	return stem
}

// chainsOf groups the name-sorted jobs into perturbation chains: jobs
// sharing a chain key form one chain, in job order. Chains are ordered by
// first appearance, so the grouping is deterministic over the sorted job
// list (topogen names the unperturbed base -p00, sorting it to the head
// of its chain).
func chainsOf(jobs []Job) [][]int {
	var chains [][]int
	index := make(map[string]int)
	for i, job := range jobs {
		key := ChainKey(job.Name)
		ci, ok := index[key]
		if !ok {
			ci = len(chains)
			index[key] = ci
			chains = append(chains, nil)
		}
		chains[ci] = append(chains[ci], i)
	}
	return chains
}

// Run sweeps the jobs: shard selection, platform-deduplicated solver
// sessions, bounded-parallel solving, JSONL streaming, and deterministic
// aggregation. It returns the aggregated report together with ctx.Err()
// if the run was cut short — the report then covers the scenarios that
// completed before the cancellation.
func Run(ctx context.Context, jobs []Job, opts Options) (*steadystate.SweepReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if opts.Simulate < 0 {
		return nil, fmt.Errorf("sweep: replay length %d is negative", opts.Simulate)
	}
	selected, err := Shard(jobs, opts.ShardIndex, opts.ShardCount)
	if err != nil {
		return nil, err
	}

	solvers, platforms := sessions(selected)
	st := &runState{opts: &opts}

	// runJob solves selected[i] on the given session and records the
	// outcome; it returns false when the whole run was canceled mid-solve
	// (the scenario then appears in neither results nor failures).
	runJob := func(i int, solver *steadystate.Solver) bool {
		job := selected[i]
		if job.Err != nil {
			st.record(job.Name, nil, nil, 0, job.Err)
			return true
		}
		solveCtx, cancel := ctx, context.CancelFunc(func() {})
		if opts.SolveTimeout > 0 {
			solveCtx, cancel = context.WithTimeout(ctx, opts.SolveTimeout)
		}
		solveStart := time.Now()
		rep, replay, err := solveOne(solveCtx, solver, job, &opts)
		cancel()
		if err != nil && ctx.Err() != nil {
			// The whole run was canceled mid-solve: this scenario was not
			// attempted to completion, so it is neither a result nor a
			// failure of the partial report.
			return false
		}
		if err != nil {
			st.record(job.Name, nil, nil, msSince(solveStart), err)
			return true
		}
		if rep.Trace != nil {
			st.recordTrace(job.Name, rep.Kind, rep.Trace)
			rep.Trace = nil
		}
		st.record(job.Name, rep, replay, rep.SolveMS, nil)
		return true
	}

	// The work queue is index-based and pre-filled: job indices in a cold
	// sweep, chain indices in a warm one (a chain is a unit of sequential
	// work — warmth flows along it, so it must not be split across
	// workers). Workers drain the queue until empty or the run context
	// dies.
	var chains [][]int
	units := len(selected)
	if opts.Warm {
		chains = chainsOf(selected)
		units = len(chains)
	}
	workers := opts.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > units {
		workers = units
	}
	queue := make(chan int)
	go func() {
		defer close(queue)
		for i := 0; i < units; i++ {
			select {
			case queue <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range queue {
				if !opts.Warm {
					if !runJob(u, solvers[u]) {
						return
					}
					continue
				}
				// A warm chain: each job gets a private session on its own
				// (possibly perturbed) platform, but the chain shares one
				// basis cache, so every solve after the head is offered its
				// predecessor's certified basis. The cache is chain-local —
				// the parallel schedule never changes which basis a solve
				// sees.
				cache := steadystate.NewBasisCache(len(chains[u]) + 1)
				for _, i := range chains[u] {
					solver := solvers[i]
					if sc := selected[i].Scenario; sc != nil {
						solver = steadystate.NewSolver(sc.Platform).UseBasisCache(cache)
					}
					if !runJob(i, solver) {
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	report := &steadystate.SweepReport{
		Platforms: platforms,
		Results:   st.results,
		Failures:  st.failures,
	}
	if opts.ShardCount > 1 {
		report.Shard = fmt.Sprintf("%d/%d", opts.ShardIndex, opts.ShardCount)
	}
	if _, err := report.Aggregate(); err != nil {
		return nil, err
	}
	report.Timing = timing(st.durations, msSince(start))
	return report, ctx.Err()
}

// solveOne solves one job on its session, traced when opts.Trace is set,
// and returns the solution report and, when opts.Simulate is positive,
// the replay verdict.
func solveOne(ctx context.Context, solver *steadystate.Solver, job Job, opts *Options) (*steadystate.Report, *steadystate.ReplayCheck, error) {
	var solveOpts []steadystate.SolveOption
	if opts.Trace != nil {
		solveOpts = append(solveOpts, steadystate.WithTrace())
	}
	sol, err := solver.Solve(ctx, job.Scenario.Spec, solveOpts...)
	if err != nil {
		return nil, nil, err
	}
	rep, err := sol.Report()
	if err != nil || opts.Simulate == 0 {
		return rep, nil, err
	}
	replay, err := steadystate.CheckReplay(sol, opts.Simulate)
	if err != nil {
		replay = &steadystate.ReplayCheck{Periods: opts.Simulate, Error: err.Error()}
	}
	return rep, replay, nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// timing computes the report's wall-clock block: total and nearest-rank
// percentiles over the solved scenarios' durations.
func timing(durations []float64, wallMS float64) *steadystate.SweepTiming {
	t := &steadystate.SweepTiming{WallMS: wallMS}
	if len(durations) == 0 {
		return t
	}
	sorted := append([]float64(nil), durations...)
	sort.Float64s(sorted)
	for _, d := range sorted {
		t.TotalSolveMS += d
	}
	rank := func(q float64) float64 {
		i := int(q*float64(len(sorted))+0.999999) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	t.SolveP50MS = rank(0.50)
	t.SolveP90MS = rank(0.90)
	t.SolveP99MS = rank(0.99)
	t.SolveMaxMS = sorted[len(sorted)-1]
	return t
}
