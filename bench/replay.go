package main

import (
	"context"
	"fmt"
	"math/big"
	"path/filepath"
	"time"

	steadystate "repro"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// replayPeriods is K, the number of periods every replay simulates.
const replayPeriods = 1000

// replay-k1000: solve, verify, build and verify the periodic schedule,
// and replay it for K periods, checking the delivered counts against
// Lemma 1. Copies of CI's seeded 16-scatter batch plus the repository's
// fixed fig6 reduce, reduce-scatter and allreduce scenarios, whose
// composites go through MergeFlows and sim.Merge.
const replayCopies = 3

var replayDef = &workloadDef{
	name: "replay-k1000",
	gen: func(cfg *config, dir string) ([]string, error) {
		paths, err := corpus(cfg, dir, replayCopies, ciScatter)
		if err != nil {
			return nil, err
		}
		for _, f := range []string{"fig6-reduce.json", "fig6-rscatter.json", "fig6-allreduce.json"} {
			paths = append(paths, filepath.Join(cfg.root, "testdata", "sweep", f))
		}
		return paths, nil
	},
	build: func(r *runner, paths []string) workload { return &replayWorkload{r: r, paths: paths} },
}

type replayWorkload struct {
	r     *runner
	paths []string
	jobs  []sweep.Job
	slots int // schedule slots over one pass, from the first traced pass
}

func (w *replayWorkload) setup(ctx context.Context) error {
	jobs, err := w.r.load(w.paths)
	if err != nil {
		return err
	}
	w.jobs = jobs
	return w.r.solveReferences(ctx, jobs)
}

// unit replays every input once, in one goroutine.
func (w *replayWorkload) unit(ctx context.Context, traced bool) (*unit, error) {
	u := &unit{ops: len(w.jobs)}
	start := time.Now()
	slots := 0
	for _, job := range w.jobs {
		opStart := time.Now()
		n, err := w.op(ctx, job, traced, u)
		u.lat = append(u.lat, msSince(opStart))
		slots += n
		w.r.op(job.Name, err)
	}
	u.wall = time.Since(start)
	if traced && w.slots == 0 {
		w.slots = slots
	}
	return u, nil
}

// op runs one replay and returns the schedule's slot count. A traced op
// records one span per call, with the program's own solve trace grafted
// under the harness's solve span.
func (w *replayWorkload) op(ctx context.Context, job sweep.Job, traced bool, u *unit) (int, error) {
	var tracer *obs.Tracer
	var opts []steadystate.SolveOption
	if traced {
		tracer = obs.NewTracer("op")
		ctx = obs.WithTracer(ctx, tracer)
		opts = append(opts, steadystate.WithTrace())
		defer func() { u.spans = append(u.spans, tracer.Finish().Root) }()
	}
	step := func(name string, f func() error) error {
		_, span := obs.StartSpan(ctx, name)
		err := f()
		span.End()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	solveCtx, solveSpan := obs.StartSpan(ctx, "solve")
	sol, err := job.Scenario.Solve(solveCtx, opts...)
	solveSpan.End()
	if err != nil {
		return 0, fmt.Errorf("solve: %w", err)
	}
	if traced {
		rep, err := sol.Report()
		if err != nil {
			return 0, fmt.Errorf("report: %w", err)
		}
		solveSpan.Children = append(solveSpan.Children, rep.Trace.Root)
		u.roots = append(u.roots, rep.Trace.Root)
		u.reports = append(u.reports, rep)
	}
	if err := w.r.checkAnswer(job.Name, sol.Throughput().RatString(), sol.Period().String()); err != nil {
		return 0, err
	}

	var sched *steadystate.Schedule
	var model *steadystate.SimModel
	var res *steadystate.SimResult
	if err := step("verify", func() error { return sol.Verify() }); err != nil {
		return 0, err
	}
	if err := step("schedule", func() (err error) { sched, err = sol.Schedule(); return err }); err != nil {
		return 0, err
	}
	if err := step("schedule.verify", func() error { return sched.Verify() }); err != nil {
		return 0, err
	}
	if err := step("sim.model", func() (err error) { model, err = sol.SimModel(); return err }); err != nil {
		return 0, err
	}
	if err := step("sim.run", func() (err error) {
		res, err = steadystate.Simulate(model, replayPeriods)
		return err
	}); err != nil {
		return 0, err
	}
	if err := step("check", func() error { return lemma1Window(sol, model, res) }); err != nil {
		return 0, err
	}
	return len(sched.Slots), nil
}

// lemma1Window checks that the replay delivered between TP·K − warmup and
// TP·K operations per sink (per member for composites), with the warmup
// bounded by the schedule depth.
func lemma1Window(sol steadystate.Solution, m *steadystate.SimModel, res *steadystate.SimResult) error {
	depth := len(m.Transfers) + len(m.Rules) + 1
	check := func(label string, tp steadystate.Rat, delivered *big.Int) error {
		ops := new(big.Rat).Mul(tp, new(big.Rat).SetInt(m.Period))
		if !ops.IsInt() {
			return fmt.Errorf("%s: TP·T = %s is not an integer", label, ops.RatString())
		}
		if ops.Sign() == 0 {
			if delivered.Sign() != 0 {
				return fmt.Errorf("%s: delivered %s at zero throughput", label, delivered)
			}
			return nil
		}
		warmup := res.FirstFullPeriod
		if warmup < 0 || warmup > depth {
			return fmt.Errorf("%s: warmup %d periods outside [0, %d]", label, warmup, depth)
		}
		upper := new(big.Int).Mul(ops.Num(), big.NewInt(replayPeriods))
		lower := new(big.Int).Mul(ops.Num(), big.NewInt(int64(replayPeriods-warmup)))
		if delivered.Cmp(lower) < 0 || delivered.Cmp(upper) > 0 {
			return fmt.Errorf("%s: delivered %s outside [%s, %s]", label, delivered, lower, upper)
		}
		return nil
	}
	if conc, ok := sol.(steadystate.Concurrent); ok {
		for i, member := range conc.Members() {
			label := fmt.Sprintf("member %d (%s)", i, member.Kind())
			if err := check(label, member.Throughput(), res.MinDeliveredPrefix(steadystate.SimMemberPrefix(i))); err != nil {
				return err
			}
		}
		return nil
	}
	return check(string(sol.Kind()), sol.Throughput(), res.MinDelivered())
}

// layers adds the schedule and simulation layers, timed per replay.
func (w *replayWorkload) layers(r *runner, m map[string]float64) {
	lt := r.layerTimes()
	per := func(name string) float64 { return ratio(lt.harness[name], lt.harnessCount[name]) }
	m["schedule.ms"] = per("schedule")
	m["schedule.verify.ms"] = per("schedule.verify")
	m["sim.model.ms"] = per("sim.model")
	m["sim.run.ms"] = per("sim.run")
	if ms := lt.harness["sim.run"]; ms > 0 {
		m["sim.periods_per_s"] = float64(replayPeriods*lt.harnessCount["sim.run"]) / (ms / 1000)
	}
	m["schedule.slots"] = float64(w.slots)
}

func (w *replayWorkload) close() {}
