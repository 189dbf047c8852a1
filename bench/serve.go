package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	steadystate "repro"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// serve-resubmit: the traffic of CI's solverd-smoke job, the one serving
// workload the repository defines. A server with solverd's default
// configuration (serve.Config{}) receives every scenario twice in a row:
// the first submission misses the report cache and is solved, the second
// must be a cache hit with a byte-identical body. One operation is one
// such pair, sent in a closed loop over one keep-alive connection. Each
// unit starts a fresh server, so every first submission misses; the
// inputs are copies of the served 16-scatter batch, for the same reason
// as the sweeps' copies.
const serveCopies = 3

var serveDef = &workloadDef{
	name: "serve-resubmit",
	gen: func(cfg *config, dir string) ([]string, error) {
		return corpus(cfg, dir, serveCopies, ciScatter)
	},
	build: func(r *runner, paths []string) workload {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
		return &serveWorkload{r: r, paths: paths, transport: tr, client: &http.Client{Transport: tr}}
	},
}

// serveUnit is what one unit's client and server saw.
type serveUnit struct {
	traced        bool
	missMS, hitMS []float64 // client-side latencies, raw
	metrics       serve.MetricsSnapshot
}

type serveWorkload struct {
	r         *runner
	paths     []string
	jobs      []sweep.Job
	bodies    [][]byte
	transport *http.Transport
	client    *http.Client
	units     []serveUnit
}

func (w *serveWorkload) setup(ctx context.Context) error {
	jobs, err := w.r.load(w.paths)
	if err != nil {
		return err
	}
	w.jobs = jobs
	w.bodies = w.bodies[:0]
	for _, p := range w.paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, data)
	}
	return w.r.solveReferences(ctx, jobs)
}

// unit starts a server and submits every input twice in a row. A traced
// unit sends ?trace=1, so its misses carry the program's solve trace.
func (w *serveWorkload) unit(ctx context.Context, traced bool) (*unit, error) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
		w.transport.CloseIdleConnections()
	}()
	url := ts.URL + "/solve"
	if traced {
		url += "?trace=1"
	}
	u := &unit{ops: len(w.jobs)}
	su := serveUnit{traced: traced}
	start := time.Now()
	for i, job := range w.jobs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		opStart := time.Now()
		err := w.pair(ctx, url, i, u, &su)
		u.lat = append(u.lat, msSince(opStart))
		w.r.op(job.Name, err)
	}
	u.wall = time.Since(start)
	su.metrics = srv.Metrics().Snapshot()
	w.units = append(w.units, su)
	return u, nil
}

// pair submits input i twice. The first response must be a miss (HTTP
// 200) with the reference answer, the second a hit with the same answer —
// and, untraced, the same bytes.
func (w *serveWorkload) pair(ctx context.Context, url string, i int, u *unit, su *serveUnit) error {
	name := w.jobs[i].Name
	start := time.Now()
	first, hit, err := w.post(ctx, url, w.bodies[i])
	su.missMS = append(su.missMS, msSince(start))
	if err != nil {
		return err
	}
	if hit {
		return fmt.Errorf("first submission was a cache hit")
	}
	var rep steadystate.Report
	if err := json.Unmarshal(first, &rep); err != nil {
		return err
	}
	if err := w.r.checkReport(name, &rep); err != nil {
		return err
	}
	if su.traced {
		if rep.Trace == nil {
			return fmt.Errorf("traced miss carries no trace")
		}
		u.roots = append(u.roots, rep.Trace.Root)
		u.reports = append(u.reports, &rep)
	}

	start = time.Now()
	second, hit, err := w.post(ctx, url, w.bodies[i])
	su.hitMS = append(su.hitMS, msSince(start))
	switch {
	case err != nil:
		return fmt.Errorf("resubmission: %w", err)
	case !hit:
		return fmt.Errorf("resubmission was not a cache hit")
	case !su.traced && !bytes.Equal(first, second):
		return fmt.Errorf("resubmission body differs from the first")
	}
	if su.traced {
		// A traced hit replays the trace marked as replayed, so only the
		// answer is compared.
		var again steadystate.Report
		if err := json.Unmarshal(second, &again); err != nil {
			return fmt.Errorf("resubmission: %w", err)
		}
		if again.Throughput != rep.Throughput || again.Period != rep.Period {
			return fmt.Errorf("resubmission answered TP=%s period=%s, first TP=%s period=%s",
				again.Throughput, again.Period, rep.Throughput, rep.Period)
		}
	}
	return nil
}

func (w *serveWorkload) post(ctx context.Context, url string, body []byte) ([]byte, bool, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	resp, err := w.client.Do(hreq)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, resp.Header.Get("X-Cache") == "hit", nil
}

// layers adds the serving layer: the client's view of hits and misses and
// the servers' own telemetry, over the untraced units.
func (w *serveWorkload) layers(r *runner, m map[string]float64) {
	var miss, hit []float64
	var queueMS, solveMS float64
	var queued, solved, solves, warm uint64
	for _, su := range w.units {
		if su.traced {
			continue
		}
		for _, l := range su.missMS {
			miss = append(miss, normDuration(l, r.speed))
		}
		for _, l := range su.hitMS {
			hit = append(hit, normDuration(l, r.speed))
		}
		queueMS += su.metrics.QueueWaitMS.SumMS
		queued += su.metrics.QueueWaitMS.Count
		solveMS += su.metrics.SolveMS.SumMS
		solved += su.metrics.SolveMS.Count
		solves += su.metrics.Solves
		warm += su.metrics.WarmStarts
	}
	m["serve.queue_wait.ms_mean"] = normDuration(ratio(queueMS, int(queued)), r.speed)
	m["serve.solve.ms_mean"] = normDuration(ratio(solveMS, int(solved)), r.speed)
	m["serve.warm_start_ratio"] = ratio(float64(warm), int(solves))
	m["serve.miss.latency_p50_ms"] = percentile(miss, 0.50)
	m["serve.miss.latency_p90_ms"] = percentile(miss, 0.90)
	m["serve.hit.latency_p50_ms"] = percentile(hit, 0.50)
}

func (w *serveWorkload) close() { w.transport.CloseIdleConnections() }
