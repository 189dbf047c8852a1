package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/sweep"
)

// sweep-cold: the batch user's path, over copies of CI's seeded sweep
// corpus — three LP shapes: plain flow (scatter), carry-bundled broadcast
// and a composite of reduces plus a gossip (allreduce over 3 ranks). A
// solve's time varies by about ±45% from one platform to the next, so one
// copy's pass time moves with the seed; sweepCopies copies average that out.
const sweepCopies = 5

var sweepColdDef = &workloadDef{
	name: "sweep-cold",
	gen: func(cfg *config, dir string) ([]string, error) {
		return corpus(cfg, dir, sweepCopies, ciSweep)
	},
	build: func(r *runner, paths []string) workload { return &sweepWorkload{r: r, paths: paths} },
}

// sweep-warm-chains: copies of CI's warm-start chains swept with warm
// starts, so a basis rebuild replaces phase 1 on every solve after a chain
// head. A chain's cost varies by about ±32% with its base platform, and
// one copy holds only four chains; chainCopies copies average that out.
const chainCopies = 10

var sweepWarmDef = &workloadDef{
	name: "sweep-warm-chains",
	gen: func(cfg *config, dir string) ([]string, error) {
		return corpus(cfg, dir, chainCopies, ciChains)
	},
	build: func(r *runner, paths []string) workload { return &sweepWorkload{r: r, paths: paths, warm: true} },
}

// sweepWorkload measures repeated passes over the corpus. A pass sweeps
// each copy of the corpus in its own single-worker sweep.Run, as CI sweeps
// its one seeded corpus, so a latency sample is the time a batch user
// waits for one corpus. Every solved scenario must reproduce its
// reference.
type sweepWorkload struct {
	r       *runner
	paths   []string
	warm    bool
	batches [][]sweep.Job // one per corpus copy
}

func (w *sweepWorkload) setup(ctx context.Context) error {
	jobs, err := w.r.load(w.paths)
	if err != nil {
		return err
	}
	w.batches = byCopy(jobs)
	return w.r.solveReferences(ctx, jobs)
}

// byCopy splits a corpus's jobs into one batch per copy, by the copy index
// corpus puts in every directory name ("scatter-2/tiers-0005.json").
func byCopy(jobs []sweep.Job) [][]sweep.Job {
	var batches [][]sweep.Job
	index := map[string]int{}
	for _, job := range jobs {
		dir, _, _ := strings.Cut(job.Name, "/")
		r := dir[strings.LastIndex(dir, "-")+1:]
		i, ok := index[r]
		if !ok {
			i = len(batches)
			index[r] = i
			batches = append(batches, nil)
		}
		batches[i] = append(batches[i], job)
	}
	return batches
}

// unit runs one pass: every batch, one after the other.
func (w *sweepWorkload) unit(ctx context.Context, traced bool) (*unit, error) {
	u := &unit{}
	start := time.Now()
	for _, jobs := range w.batches {
		if err := w.sweep(ctx, jobs, traced, u); err != nil {
			return nil, err
		}
	}
	u.wall = time.Since(start)
	return u, nil
}

// sweep runs one batch and checks its results. Jobs: 1 leaves the second
// core to the Go runtime, which keeps sweep times steady on a 2-core
// machine.
func (w *sweepWorkload) sweep(ctx context.Context, jobs []sweep.Job, traced bool, u *unit) error {
	var records, traces bytes.Buffer
	opts := sweep.Options{Jobs: 1, JSONL: &records, Warm: w.warm}
	if traced {
		opts.Trace = &traces
	}
	start := time.Now()
	_, err := sweep.Run(ctx, jobs, opts)
	u.lat = append(u.lat, msSince(start))
	if err != nil {
		return err
	}
	u.ops += len(jobs)
	seen := make(map[string]bool, len(jobs))
	dec := json.NewDecoder(&records)
	for dec.More() {
		var rec sweep.Record
		if err := dec.Decode(&rec); err != nil {
			return fmt.Errorf("sweep record: %w", err)
		}
		seen[rec.Name] = true
		if rec.Error != "" {
			w.r.op(rec.Name, errors.New(rec.Error))
			continue
		}
		w.r.op(rec.Name, w.r.checkReport(rec.Name, rec.Report))
		u.busyMS += rec.SolveMS
		if traced {
			u.reports = append(u.reports, rec.Report)
		}
	}
	for _, job := range jobs {
		if !seen[job.Name] {
			w.r.op(job.Name, errors.New("missing from the sweep's results"))
		}
	}
	dec = json.NewDecoder(&traces)
	for dec.More() {
		var tr sweep.TraceRecord
		if err := dec.Decode(&tr); err != nil {
			return fmt.Errorf("sweep trace: %w", err)
		}
		u.roots = append(u.roots, tr.Trace.Root)
	}
	return nil
}

// layers adds the sweep engine's share of a pass: how busy the single
// worker was solving, and the per-scenario time outside the solves.
func (w *sweepWorkload) layers(r *runner, m map[string]float64) {
	var busy, overhead float64
	passes, ops := 0, 0
	for _, u := range r.units {
		if u.traced {
			continue
		}
		solving := u.busyMS
		wall := float64(u.wall) / float64(time.Millisecond)
		busy += solving / wall
		overhead += normDuration(wall-solving, r.speed)
		passes++
		ops += u.ops
	}
	m["sweep.busy_ratio"] = ratio(busy, passes)
	m["sweep.overhead_ms"] = ratio(overhead, ops)
}

func (w *sweepWorkload) close() {}
