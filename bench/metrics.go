package main

import (
	steadystate "repro"
	"repro/internal/obs"
)

// metricDef is one reported metric: its name and unit, as BENCHMARK.json
// declares them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Timings are normalised to
// the reference machine speed (see calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer the workload never
// reaches reads 0.
var perLayer = []metricDef{
	// internal/lp, from the program's spans (per solve) and its Report
	// counters (summed over one pass of the inputs).
	{"lp.rows.self_ms", "ms"},
	{"lp.phase1.self_ms", "ms"},
	{"lp.phase2.self_ms", "ms"},
	{"lp.warmstart.self_ms", "ms"},
	{"lp.us_per_pivot", "us"},
	{"lp.pivots", "count"},
	{"lp.phase1_pivots", "count"},
	{"lp.rebuild_pivots", "count"},
	{"lp.nonzeros", "count"},
	{"lp.warm_start_ratio", "ratio"},
	// The solve root: its duration and the part no child span covers.
	{"solve.ms", "ms"},
	{"solve.unattributed_ms", "ms"},
	// internal/{scatter,reduce,composite,core} model assembly and extraction.
	{"assemble.self_ms", "ms"},
	{"reachability.self_ms", "ms"},
	{"extract.self_ms", "ms"},
	// Layers every workload reaches, probed on its inputs during set-up.
	{"decode.ms", "ms"},
	{"cache_key.ms", "ms"},
	{"verify.ms", "ms"},
	{"report.ms", "ms"},
	// internal/schedule + internal/matching, internal/sim (replay only).
	{"schedule.ms", "ms"},
	{"schedule.verify.ms", "ms"},
	{"schedule.slots", "count"},
	{"sim.model.ms", "ms"},
	{"sim.run.ms", "ms"},
	{"sim.periods_per_s", "1/s"},
	// internal/sweep (sweeps only).
	{"sweep.busy_ratio", "ratio"},
	{"sweep.overhead_ms", "ms"},
	// internal/serve (serve only).
	{"serve.queue_wait.ms_mean", "ms"},
	{"serve.solve.ms_mean", "ms"},
	{"serve.hit.latency_p50_ms", "ms"},
	{"serve.miss.latency_p50_ms", "ms"},
	{"serve.miss.latency_p90_ms", "ms"},
	{"serve.warm_start_ratio", "ratio"},
	// Warm-offered solves that ended at another period than the cold
	// reference, per unit (see runner.checkReport).
	{"warm.period_mismatches", "count"},
	// internal/obs: traced against untraced units of the same run.
	{"obs.trace_overhead_pct", "%"},
	// Go runtime and the machine.
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"env.calib_ips", "iter/s"},
	{"env.speed_index", "ratio"},
	{"env.raw_ops_per_s", "ops/s"},
}

func withUnits(defs []metricDef, m map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{Value: m[d.name], Unit: d.unit}
	}
	return out
}

// endToEnd computes the end-to-end metrics, normalised and raw.
func (r *runner) endToEnd() (m, raw map[string]float64, err error) {
	sp := r.speed
	var rates, rawRates, lat, rawLat []float64
	for _, u := range r.units {
		rate := float64(u.ops) / u.wall.Seconds()
		rawRates = append(rawRates, rate)
		rates = append(rates, normRate(rate, sp))
		for _, l := range u.lat {
			rawLat = append(rawLat, l)
			lat = append(lat, normDuration(l, sp))
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	m = map[string]float64{
		"setup_s":        normDuration(median(r.setups), sp),
		"ops_per_s":      median(rates),
		"latency_p50_ms": percentile(lat, 0.50),
		"latency_p90_ms": percentile(lat, 0.90),
		"peak_rss_mb":    rss,
	}
	raw = map[string]float64{
		"setup_s":        median(r.setups),
		"ops_per_s":      median(rawRates),
		"latency_p50_ms": percentile(rawLat, 0.50),
		"latency_p90_ms": percentile(rawLat, 0.90),
		"peak_rss_mb":    rss,
	}
	return m, raw, nil
}

// spanMS is a span's duration; selfMS its duration minus its children's.
func spanMS(s *obs.Span) float64 {
	if s == nil || s.Timing == nil {
		return 0
	}
	return s.Timing.DurMS
}

func selfMS(s *obs.Span) float64 {
	d := spanMS(s)
	for _, c := range s.Children {
		d -= spanMS(c)
	}
	return d
}

// attr reads a numeric span attribute, whether it was recorded in this
// process (an int) or decoded from JSON (a float64).
func attr(s *obs.Span, key string) float64 {
	switch v := s.Attrs[key].(type) {
	case int:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// layerTimes aggregates the solve span trees of the traced units: total
// normalised self time per span name (the root counted as "solve"), the
// number of roots, their total duration, and the pivots of the simplex
// phases.
type layerTimes struct {
	self         map[string]float64
	solves       int
	solveMS      float64
	phasePivots  float64
	harness      map[string]float64 // harness span durations by name
	harnessCount map[string]int
}

func (r *runner) layerTimes() *layerTimes {
	lt := &layerTimes{self: map[string]float64{}, harness: map[string]float64{}, harnessCount: map[string]int{}}
	sp := r.speed
	for _, u := range r.units {
		if !u.traced {
			continue
		}
		for _, root := range u.roots {
			lt.solves++
			lt.solveMS += normDuration(spanMS(root), sp)
			lt.self["solve"] += normDuration(selfMS(root), sp)
			for _, c := range root.Children {
				c.Walk(func(s *obs.Span) {
					lt.self[s.Name] += normDuration(selfMS(s), sp)
					if s.Name == "lp.phase1" || s.Name == "lp.phase2" {
						lt.phasePivots += attr(s, "pivots")
					}
				})
			}
		}
		for _, op := range u.spans {
			for _, c := range op.Children {
				lt.harness[c.Name] += normDuration(spanMS(c), sp)
				lt.harnessCount[c.Name]++
			}
		}
	}
	return lt
}

// layerMetrics computes the per-layer metrics of a traced run.
func (r *runner) layerMetrics(w workload) map[string]float64 {
	m := map[string]float64{}
	lt := r.layerTimes()
	for _, name := range []string{"lp.rows", "lp.phase1", "lp.phase2", "lp.warmstart", "assemble", "reachability", "extract"} {
		m[name+".self_ms"] = ratio(lt.self[name], lt.solves)
	}
	m["solve.ms"] = ratio(lt.solveMS, lt.solves)
	m["solve.unattributed_ms"] = ratio(lt.self["solve"], lt.solves)
	if lt.phasePivots > 0 {
		m["lp.us_per_pivot"] = 1000 * (lt.self["lp.phase1"] + lt.self["lp.phase2"]) / lt.phasePivots
	}

	// Exact counters over one pass: the first traced unit.
	for _, u := range r.units {
		if u.traced {
			counters(u.reports, u.roots, m)
			break
		}
	}

	sp := r.speed
	p := r.probes
	m["decode.ms"] = normDuration(ratio(p.decodeMS, p.decodes), sp)
	m["cache_key.ms"] = normDuration(ratio(p.cacheKeyMS, p.cacheKeys), sp)
	m["verify.ms"] = normDuration(ratio(p.verifyMS, p.verifies), sp)
	m["report.ms"] = normDuration(ratio(p.reportMS, p.reports), sp)

	var tracedLat, untracedLat, rawRates []float64
	var alloc, gcs float64
	ops := 0
	for _, u := range r.units {
		if u.traced {
			tracedLat = append(tracedLat, u.lat...)
		} else {
			untracedLat = append(untracedLat, u.lat...)
			rawRates = append(rawRates, float64(u.ops)/u.wall.Seconds())
			alloc += float64(u.alloc)
			gcs += float64(u.gcs)
			ops += u.ops
		}
	}
	if mu := mean(untracedLat); mu > 0 {
		m["obs.trace_overhead_pct"] = 100 * (mean(tracedLat)/mu - 1)
	}
	m["runtime.alloc_kb_per_op"] = ratio(alloc/1024, ops)
	m["runtime.gc_cycles_per_op"] = ratio(gcs, ops)
	m["env.calib_ips"] = median(r.cal.slices)
	m["env.speed_index"] = sp
	m["env.raw_ops_per_s"] = median(rawRates)
	m["warm.period_mismatches"] = ratio(float64(r.periodMismatches), len(r.units))

	w.layers(r, m)
	return m
}

// counters sums the exact LP counters of one pass's reports and spans.
func counters(reports []*steadystate.Report, roots []*obs.Span, m map[string]float64) {
	var pivots, phase1, nonzeros, warm, rebuild float64
	for _, rep := range reports {
		pivots += float64(rep.LPPivots)
		phase1 += float64(rep.LPPhase1Pivots)
		nonzeros += float64(rep.LPNonZeros)
		if rep.WarmStart {
			warm++
		}
	}
	for _, root := range roots {
		root.Walk(func(s *obs.Span) {
			if s.Name == "lp.warmstart" {
				rebuild += attr(s, "rebuild_pivots")
			}
		})
	}
	m["lp.pivots"] = pivots
	m["lp.phase1_pivots"] = phase1
	m["lp.nonzeros"] = nonzeros
	m["lp.rebuild_pivots"] = rebuild
	m["lp.warm_start_ratio"] = ratio(warm, len(reports))
}

func ratio(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
