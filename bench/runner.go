package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	steadystate "repro"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median. Every repetition re-solves the references, and they must agree
// bit for bit with the first repetition's.
const setupReps = 3

// workloadDef names a workload, generates its inputs and builds it.
type workloadDef struct {
	name  string
	gen   func(cfg *config, dir string) ([]string, error)
	build func(r *runner, paths []string) workload
}

// workload is one benchmark workload after its inputs exist.
type workload interface {
	// setup loads the inputs and prepares everything measured units need;
	// it runs setupReps times and is timed as setup_s.
	setup(ctx context.Context) error
	// unit runs one measured unit of work — one pass over the inputs: a
	// sweep, a replay of each, or a submit-and-resubmit of each to a fresh
	// server — tracing it when asked.
	unit(ctx context.Context, traced bool) (*unit, error)
	// layers adds the workload's own per-layer metrics, computed from the
	// run's units, to m.
	layers(r *runner, m map[string]float64)
	close()
}

var workloads = []*workloadDef{sweepColdDef, sweepWarmDef, replayDef, serveDef}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// unit is one measured unit of work.
type unit struct {
	ops    int           // operations attempted
	wall   time.Duration // wall time of the unit
	lat    []float64     // latency samples, raw ms
	busyMS float64       // solve time the program reported (sweeps)
	traced bool

	// roots are the program's solve span trees recorded in a traced unit;
	// spans are the harness's per-operation span trees (with the program's
	// solve roots grafted in), when the harness calls the solver itself.
	roots []*obs.Span
	spans []*obs.Span

	// reports are a traced unit's solve reports, for the exact counters.
	reports []*steadystate.Report

	alloc uint64 // bytes allocated during the unit
	gcs   uint32 // GC cycles during the unit
}

// reference is the exact answer to one input, from a verified solve.
type reference struct {
	Throughput string
	Period     string
}

// runner carries one workload run: calibration, correctness accounting,
// set-up timings, the measured units and the layer probes.
type runner struct {
	cfg *config
	def *workloadDef
	log io.Writer
	cal *calibrator

	mu        sync.Mutex
	attempted int
	failed    int
	// periodMismatches counts warm-offered solves that matched the
	// reference throughput at another period (see checkReport).
	periodMismatches int

	refs   map[string]*reference
	setups []float64 // raw set-up seconds
	units  []*unit
	probes probes
	speed  float64 // the run's machine speed, once measured
}

// op records one checked operation; a non-nil err marks it failed.
func (r *runner) op(name string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(r.log, "bench: %s: %s: %v\n", r.def.name, name, err)
	}
}

// checkReport compares a solve's report with the input's reference, bit
// for bit. One case is counted instead of failed: a solve that was offered
// a cached basis — used, or rejected and then steering a cold phase 1
// toward it — that reproduces the reference throughput at another period.
// The warm-start contract promises the cold period, but degenerate LPs
// let such a solve stop at another optimal vertex (see README.md,
// Findings). The count is the per-layer metric warm.period_mismatches and
// is reported on stderr, so the defect stays visible until it is fixed
// and this exemption can go.
func (r *runner) checkReport(name string, rep *steadystate.Report) error {
	if rep == nil {
		return fmt.Errorf("no report")
	}
	ref := r.refs[name]
	warm := rep.WarmStart || rep.WarmReject != ""
	if warm && ref != nil && rep.Throughput == ref.Throughput && rep.Period != ref.Period {
		r.mu.Lock()
		r.periodMismatches++
		r.mu.Unlock()
		return nil
	}
	return r.checkAnswer(name, rep.Throughput, rep.Period)
}

// checkAnswer compares an exact throughput and period with the input's
// reference, bit for bit.
func (r *runner) checkAnswer(name, tp, period string) error {
	ref := r.refs[name]
	switch {
	case ref == nil:
		return fmt.Errorf("no reference solution")
	case tp != ref.Throughput || period != ref.Period:
		return fmt.Errorf("answer TP=%s period=%s, reference TP=%s period=%s",
			tp, period, ref.Throughput, ref.Period)
	}
	return nil
}

// probes time calls into the layers every workload reaches — scenario
// decode, the serving cache key, Solution.Verify and Report encoding — on
// the workload's own inputs during set-up. Raw milliseconds and counts.
type probes struct {
	decodeMS, cacheKeyMS, verifyMS, reportMS float64
	decodes, cacheKeys, verifies, reports    int
}

// load reads and decodes each scenario file as a sweep job named
// label/base, timing the decode.
func (r *runner) load(paths []string) ([]sweep.Job, error) {
	jobs := make([]sweep.Job, 0, len(paths))
	for _, p := range paths {
		start := time.Now()
		job := sweep.LoadFile(p)
		r.probes.decodeMS += msSince(start)
		r.probes.decodes++
		if job.Err != nil {
			return nil, job.Err
		}
		job.Name = filepath.Base(filepath.Dir(p)) + "/" + job.Name
		jobs = append(jobs, job)
	}
	return jobs, nil
}

// solveReferences solves every job on a fresh session, verifies it, and
// records its exact answer. The first call's answers become the run's
// references; later calls (the set-up repetitions) must reproduce them.
func (r *runner) solveReferences(ctx context.Context, jobs []sweep.Job) error {
	first := r.refs == nil
	if first {
		r.refs = make(map[string]*reference, len(jobs))
	}
	for _, job := range jobs {
		start := time.Now()
		_, err := serve.CacheKey(job.Scenario)
		r.probes.cacheKeyMS += msSince(start)
		r.probes.cacheKeys++
		if err != nil {
			return fmt.Errorf("%s: cache key: %w", job.Name, err)
		}
		sol, err := job.Scenario.Solve(ctx)
		if err != nil {
			return fmt.Errorf("%s: reference solve: %w", job.Name, err)
		}
		start = time.Now()
		verr := sol.Verify()
		r.probes.verifyMS += msSince(start)
		r.probes.verifies++
		start = time.Now()
		rep, err := sol.Report()
		if err == nil {
			_, err = json.Marshal(rep)
		}
		r.probes.reportMS += msSince(start)
		r.probes.reports++
		if err != nil {
			return fmt.Errorf("%s: report: %w", job.Name, err)
		}
		if first {
			r.refs[job.Name] = &reference{Throughput: rep.Throughput, Period: rep.Period}
		} else if verr == nil {
			verr = r.checkReport(job.Name, rep)
		}
		r.op(job.Name, verr)
	}
	return nil
}

// measure runs the set-up repetitions and then measured units until the
// time budget is spent, with calibration slices between them.
func (r *runner) measure(ctx context.Context, w workload) error {
	for i := 0; i < setupReps; i++ {
		r.cal.slice()
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
	}
	if r.cfg.tamper != nil {
		r.cfg.tamper(r.refs)
	}
	budget := time.Duration(r.cfg.seconds * float64(time.Second))
	minUnits := 1
	if r.cfg.trace {
		// Traced runs alternate untraced and traced units, so the trace
		// overhead is measured on the same workload in the same process.
		minUnits = 2
	}
	start := time.Now()
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		traced := r.cfg.trace && i%2 == 1
		r.cal.maybeSlice()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		u, err := w.unit(ctx, traced)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		u.traced = traced
		u.alloc, u.gcs = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
		r.units = append(r.units, u)
		if i+1 >= minUnits && time.Since(start)+u.wall > budget {
			break
		}
	}
	r.cal.slice()
	r.speed = r.cal.speed()
	return nil
}

// runWorkload generates the inputs of cfg.workload, runs it, and returns
// its metrics. The inputs are deleted afterwards.
func runWorkload(ctx context.Context, cfg *config, log io.Writer) (*result, error) {
	def := workloadByName(cfg.workload)
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d", def.name, cfg.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	paths, err := def.gen(cfg, dir)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	r := &runner{cfg: cfg, def: def, log: log, cal: newCalibrator()}
	w := def.build(r, paths)
	defer w.close()
	if err := r.measure(ctx, w); err != nil {
		return nil, err
	}
	if r.periodMismatches > 0 {
		fmt.Fprintf(log, "bench: %s: %d warm-started solves in %d units matched the reference throughput at another period (warm.period_mismatches)\n",
			def.name, r.periodMismatches, len(r.units))
	}
	res := &result{
		Workload: def.name,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		line:     line{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed},
	}
	if cfg.trace {
		m := r.layerMetrics(w)
		res.Metrics = withUnits(perLayer, m)
		if cfg.spans != "" {
			if err := r.writeSpans(cfg.spans); err != nil {
				return nil, err
			}
		}
	} else {
		m, raw, err := r.endToEnd()
		if err != nil {
			return nil, err
		}
		res.Metrics = withUnits(endToEnd, m)
		res.Raw = withUnits(endToEnd, raw)
	}
	return res, nil
}

// batch is one topogen Tiers batch of a corpus recipe.
type batch struct {
	op    string
	count int
	extra []string // further topogen flags
}

// The recipes of the seeded corpora CI generates: the bench-smoke sweep
// (16 scatter, 8 broadcast and 4 allreduce over 3 ranks, all three on one
// topogen seed), the bench-smoke warm-start chains (4 bases × 8
// cumulative perturbations), and the 16-scatter batch that solverd-smoke
// serves and the sim-conformance step replays.
var (
	ciSweep   = []batch{{"scatter", 16, nil}, {"broadcast", 8, nil}, {"allreduce", 4, []string{"-ranks", "3"}}}
	ciChains  = []batch{{"scatter", 4, []string{"-perturb", "8"}}}
	ciScatter = []batch{{"scatter", 16, nil}}
)

// corpus writes copies of a recipe under dir and returns the files in
// name order. Copy r uses topogen seed seed + 1000·r, so copy 0 at seed 42
// is byte for byte the corpus CI generates; the further copies add other
// platforms, so that a pass averages over enough of them to read the same
// from one seed to the next.
func corpus(cfg *config, dir string, copies int, recipe []batch) ([]string, error) {
	if cfg.scale > 0 {
		copies = 1
	}
	var all []string
	for r := 0; r < copies; r++ {
		seed := strconv.FormatInt(cfg.seed+1000*int64(r), 10)
		for _, b := range recipe {
			n := b.count
			if cfg.scale > 0 {
				n = max(2, int(float64(n)*cfg.scale))
			}
			sub := filepath.Join(dir, fmt.Sprintf("%s-%d", b.op, r))
			args := append([]string{"-kind", "tiers", "-spec", "-out", sub,
				"-op", b.op, "-count", strconv.Itoa(n), "-seed", seed}, b.extra...)
			cmd := exec.Command(cfg.topogen, args...)
			if out, err := cmd.CombinedOutput(); err != nil {
				return nil, fmt.Errorf("topogen %s: %w\n%s", strings.Join(args, " "), err, out)
			}
			paths, err := filepath.Glob(filepath.Join(sub, "*.json"))
			if err != nil {
				return nil, err
			}
			all = append(all, paths...)
		}
	}
	sort.Strings(all)
	return all, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// writeSpans writes the traced units' span trees as JSONL: one line per
// harness operation, or per program solve where the program ran the
// operation itself.
func (r *runner) writeSpans(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, u := range r.units {
		if !u.traced {
			continue
		}
		trees := u.spans
		if len(trees) == 0 {
			trees = u.roots
		}
		for _, s := range trees {
			if err := enc.Encode(struct {
				Workload string    `json:"workload"`
				Unit     int       `json:"unit"`
				Root     *obs.Span `json:"root"`
			}{r.def.name, i, s}); err != nil {
				return err
			}
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func msSince(t time.Time) float64 { return ms(time.Since(t)) }
