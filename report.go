// report.go defines the serializable artifacts of the unified API: the
// Scenario file format (platform + spec) that lets cmd/topogen,
// cmd/paperbench and cmd/sscollect compose through files, and the Report
// summary of a solved collective.
package steadystate

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rat"
)

// Scenario bundles a platform with the spec of a collective to solve on
// it — the on-disk unit of work of the cmd pipeline. cmd/topogen writes
// scenarios, cmd/sscollect and cmd/paperbench consume them.
type Scenario struct {
	Platform *Platform
	Spec     Spec
}

type jsonScenario struct {
	Platform json.RawMessage `json:"platform"`
	Spec     json.RawMessage `json:"spec,omitempty"`
}

// MarshalJSON serializes the scenario; the platform keeps its exact
// rational costs and speeds. The output is compact — top-level and nested
// serialization agree byte for byte, and writers indent at the edge.
func (sc *Scenario) MarshalJSON() ([]byte, error) {
	if sc.Platform == nil {
		return nil, fmt.Errorf("steadystate: scenario has no platform")
	}
	pdata, err := json.Marshal(sc.Platform)
	if err != nil {
		return nil, err
	}
	js := jsonScenario{Platform: pdata}
	// A platform-only scenario (no spec yet) is valid on both sides of
	// the round trip.
	if sc.Spec.Kind != "" {
		js.Spec, err = json.Marshal(sc.Spec)
		if err != nil {
			return nil, err
		}
	}
	return json.Marshal(js)
}

// UnmarshalJSON deserializes a scenario produced by MarshalJSON.
func (sc *Scenario) UnmarshalJSON(data []byte) error {
	var js jsonScenario
	if err := json.Unmarshal(data, &js); err != nil {
		return err
	}
	if len(js.Platform) == 0 {
		return fmt.Errorf("steadystate: scenario has no platform")
	}
	sc.Platform = NewPlatform()
	if err := json.Unmarshal(js.Platform, sc.Platform); err != nil {
		return err
	}
	sc.Spec = Spec{}
	if len(js.Spec) > 0 {
		if err := json.Unmarshal(js.Spec, &sc.Spec); err != nil {
			return err
		}
	}
	return nil
}

// Solve solves the scenario's spec on its platform.
func (sc *Scenario) Solve(ctx context.Context, opts ...SolveOption) (Solution, error) {
	return Solve(ctx, sc.Platform, sc.Spec, opts...)
}

// Trace, Span and Timing alias the internal observability types so
// callers can traverse Report.Trace — the span tree of a WithTrace solve
// — without importing internal packages. See WithTrace for the
// determinism contract.
type (
	Trace  = obs.Trace
	Span   = obs.Span
	Timing = obs.Timing
)

// Report is the serializable summary of a solved collective: exact
// rationals travel as strings ("2/9"), periods as decimal strings, so
// reports survive JSON without losing the bit-exactness the framework
// guarantees.
type Report struct {
	Kind Kind `json:"kind"`
	// Throughput is TP as an exact rational string.
	Throughput string `json:"throughput"`
	// ThroughputFloat approximates TP for human consumption; may round.
	ThroughputFloat float64 `json:"throughput_float"`
	// Period is the integer schedule period.
	Period string `json:"period"`
	// LP records the size, sparsity and solve cost of the solved linear
	// program: LPNonZeros counts the constraint matrix's nonzero
	// coefficients and LPDensity is that count over the Vars×Constraints
	// area (what the sparse tableau exploits); LPPivots is the total
	// simplex pivot count, LPPhase1Pivots the share spent finding a
	// feasible basis (phase 1).
	LPVars         int     `json:"lp_vars"`
	LPConstraints  int     `json:"lp_constraints"`
	LPNonZeros     int     `json:"lp_nonzeros"`
	LPDensity      float64 `json:"lp_density,omitempty"`
	LPPivots       int     `json:"lp_pivots"`
	LPPhase1Pivots int     `json:"lp_phase1_pivots,omitempty"`
	// SolveMS is the wall-clock duration of the Solve call in milliseconds
	// (zero for member reports, which are solved jointly with their
	// composite). It is measurement, not arithmetic: two identical solves
	// report identical throughputs but may report different SolveMS.
	SolveMS float64 `json:"solve_ms,omitempty"`
	// WarmStart is true when the solve reused a cached basis from the
	// basis cache it was given (see WithBasisCache):
	// WarmPivotsSaved estimates the phase-1 pivots the reuse avoided
	// (the cached basis's original phase-1 cost minus the pivots this
	// solve actually spent restoring it). When a cached basis was offered
	// but rejected, WarmReject names the reason (fingerprint_mismatch,
	// shape_mismatch, singular_basis, infeasible_basis). Warm starts
	// never change the reported rationals — only the pivot counts and
	// SolveMS.
	WarmStart       bool   `json:"warm_start,omitempty"`
	WarmReject      string `json:"warm_reject,omitempty"`
	WarmPivotsSaved int    `json:"lp_warm_pivots_saved,omitempty"`
	// Trees counts the extracted reduction trees (reduce/gather only).
	Trees int `json:"trees,omitempty"`
	// FixedPeriod/FixedThroughput/FixedLoss describe the Section 4.6
	// approximation when the solve used WithFixedPeriod.
	FixedPeriod     string `json:"fixed_period,omitempty"`
	FixedThroughput string `json:"fixed_throughput,omitempty"`
	FixedLoss       string `json:"fixed_loss,omitempty"`
	// Members summarizes each member of a composite-style solve
	// (composite, reducescatter, allreduce): one report per member
	// collective, solved jointly — an allreduce reports its N reduce
	// members (the reduce-scatter phase) followed by the allgather
	// gossip member.
	Members []*Report `json:"members,omitempty"`
	// Weight is the member's weight within its composite (member reports
	// only), as an exact rational string.
	Weight string `json:"weight,omitempty"`
	// Trace is the span-structured solve trace (only when the solve used
	// WithTrace). Its structure and attributes are deterministic; the
	// wall-clock measurements live in each span's timing block, strippable
	// with Trace.WithoutTiming for byte-exact comparison.
	Trace *obs.Trace `json:"trace,omitempty"`
}

// newReport fills the fields every kind shares.
func newReport(kind Kind, tp Rat, period fmt.Stringer, stats core.FlowStats) *Report {
	return &Report{
		Kind:            kind,
		Throughput:      tp.RatString(),
		ThroughputFloat: rat.Float(tp),
		Period:          period.String(),
		LPVars:          stats.Vars,
		LPConstraints:   stats.Constraints,
		LPNonZeros:      stats.NonZeros,
		LPDensity:       stats.Density,
		LPPivots:        stats.Pivots,
		LPPhase1Pivots:  stats.Phase1Pivots,
	}
}

// ---------------------------------------------------------------------------
// Sweep reports

// SweepResult is one solved scenario of a sweep, reduced to its
// deterministic summary: exact throughput and LP cost counters, no
// wall-clock measurements. Two sweeps over the same scenarios produce
// identical SweepResults regardless of -jobs, sharding or machine load.
type SweepResult struct {
	// Name identifies the scenario within the sweep (the file base name
	// for file sweeps).
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	// Throughput is TP as an exact rational string; Period the integer
	// schedule period.
	Throughput     string  `json:"throughput"`
	Period         string  `json:"period"`
	LPVars         int     `json:"lp_vars"`
	LPConstraints  int     `json:"lp_constraints"`
	LPNonZeros     int     `json:"lp_nonzeros"`
	LPDensity      float64 `json:"lp_density,omitempty"`
	LPPivots       int     `json:"lp_pivots"`
	LPPhase1Pivots int     `json:"lp_phase1_pivots,omitempty"`
	// Warm-start outcome of the solve (see Report.WarmStart). Only set by
	// warm sweeps; cold sweeps leave all three zero so their results stay
	// byte-identical to pre-warm-start sweeps.
	WarmStart       bool   `json:"warm_start,omitempty"`
	WarmReject      string `json:"warm_reject,omitempty"`
	WarmPivotsSaved int    `json:"lp_warm_pivots_saved,omitempty"`
	// Replay is the Lemma-1 verdict of the scenario's replay (CheckReplay).
	// Only sweeps that replay set it.
	Replay *ReplayCheck `json:"replay,omitempty"`
}

// SweepFailure records one scenario that could not be solved — a file
// that failed to parse, a spec the platform rejects, a solve that timed
// out — with the error that explains it. Failures never abort a sweep;
// they accumulate here.
type SweepFailure struct {
	Name  string `json:"name"`
	Error string `json:"error"`
}

// SweepKindStats aggregates the solved scenarios of one collective kind:
// the throughput range and exact mean, and the summed LP cost counters.
type SweepKindStats struct {
	Kind  Kind `json:"kind"`
	Count int  `json:"count"`
	// Min/Max/MeanThroughput are exact rational strings; the mean is
	// Σ TP / Count computed in exact arithmetic.
	MinThroughput  string `json:"min_throughput"`
	MaxThroughput  string `json:"max_throughput"`
	MeanThroughput string `json:"mean_throughput"`
	// LP cost totals across the kind's solves. MeanLPDensity is the
	// arithmetic mean of the per-scenario densities (averaged over the
	// name-sorted results, so it is deterministic).
	TotalLPVars        int     `json:"total_lp_vars"`
	TotalLPConstraints int     `json:"total_lp_constraints"`
	TotalLPNonZeros    int     `json:"total_lp_nonzeros"`
	MeanLPDensity      float64 `json:"mean_lp_density,omitempty"`
	TotalLPPivots      int     `json:"total_lp_pivots"`
	MaxLPPivots        int     `json:"max_lp_pivots"`
	// Warm-start totals across the kind's solves (zero in cold sweeps).
	WarmStarts           int `json:"warm_starts,omitempty"`
	WarmRejects          int `json:"warm_rejects,omitempty"`
	TotalWarmPivotsSaved int `json:"total_warm_pivots_saved,omitempty"`
}

// SweepTiming carries the sweep's wall-clock measurements, split from the
// deterministic body of a SweepReport so golden tests and cross-run diffs
// can compare everything else byte for byte.
type SweepTiming struct {
	// WallMS is the end-to-end sweep duration; TotalSolveMS the sum of
	// per-scenario solve times (> WallMS when -jobs exploits parallelism).
	WallMS       float64 `json:"wall_ms"`
	TotalSolveMS float64 `json:"total_solve_ms"`
	// Solve-time percentiles over the solved scenarios, in milliseconds
	// (nearest-rank on the sorted durations).
	SolveP50MS float64 `json:"solve_p50_ms"`
	SolveP90MS float64 `json:"solve_p90_ms"`
	SolveP99MS float64 `json:"solve_p99_ms"`
	SolveMaxMS float64 `json:"solve_max_ms"`
}

// SweepReport is the aggregated outcome of a scenario sweep. Everything
// except Timing is deterministic with stable ordering: Results and
// Failures sort by name, then by content, Kinds by kind, so reports from
// -jobs 1 and -jobs 8 runs are identical and complementary -shard runs
// union cleanly.
type SweepReport struct {
	// Scenarios = Solved + Failed is the number of scenarios this run
	// attempted (after shard selection).
	Scenarios int `json:"scenarios"`
	Solved    int `json:"solved"`
	Failed    int `json:"failed"`
	// ReplayFailures counts the solved scenarios whose replay verdict
	// failed (zero when the sweep did not replay).
	ReplayFailures int `json:"replay_failures,omitempty"`
	// Shard is "i/n" when the sweep ran shard i of n, empty otherwise.
	Shard string `json:"shard,omitempty"`
	// Platforms counts the distinct platform topologies (by content hash)
	// among the attempted scenarios.
	Platforms int               `json:"platforms"`
	Kinds     []*SweepKindStats `json:"kinds,omitempty"`
	Results   []*SweepResult    `json:"results,omitempty"`
	Failures  []*SweepFailure   `json:"failures,omitempty"`
	Timing    *SweepTiming      `json:"timing,omitempty"`
}

// SweepResultOf reduces a solved scenario's Report to its deterministic
// sweep summary.
func SweepResultOf(name string, rep *Report) *SweepResult {
	return &SweepResult{
		Name:            name,
		Kind:            rep.Kind,
		Throughput:      rep.Throughput,
		Period:          rep.Period,
		LPVars:          rep.LPVars,
		LPConstraints:   rep.LPConstraints,
		LPNonZeros:      rep.LPNonZeros,
		LPDensity:       rep.LPDensity,
		LPPivots:        rep.LPPivots,
		LPPhase1Pivots:  rep.LPPhase1Pivots,
		WarmStart:       rep.WarmStart,
		WarmReject:      rep.WarmReject,
		WarmPivotsSaved: rep.WarmPivotsSaved,
	}
}

// sortByName sorts entries by name. Names can repeat (files of different
// directories share base names), so equal names fall back to the entries'
// JSON encodings: any permutation of the same entries sorts to the same
// sequence, and a batch of unique names never encodes anything.
func sortByName[T any](entries []*T, name func(*T) string) {
	sort.Slice(entries, func(i, j int) bool {
		if a, b := name(entries[i]), name(entries[j]); a != b {
			return a < b
		}
		// Sweep entries hold strings, integers, bools and finite floats:
		// encoding them cannot fail.
		x, _ := json.Marshal(entries[i])
		y, _ := json.Marshal(entries[j])
		return string(x) < string(y)
	})
}

// Aggregate sorts the report's results, failures and kind tables into
// their canonical order and recomputes the counters and per-kind
// aggregates from Results and Failures. Call after appending results;
// the receiver is returned for chaining.
func (r *SweepReport) Aggregate() (*SweepReport, error) {
	sortByName(r.Results, func(res *SweepResult) string { return res.Name })
	sortByName(r.Failures, func(f *SweepFailure) string { return f.Name })
	r.Solved = len(r.Results)
	r.Failed = len(r.Failures)
	r.Scenarios = r.Solved + r.Failed
	r.ReplayFailures = 0

	type acc struct {
		count            int
		min, max, sum    Rat
		vars, cons       int
		nonzeros         int
		density          float64
		pivots, maxPivot int
		warmStarts       int
		warmRejects      int
		warmSaved        int
	}
	byKind := make(map[Kind]*acc)
	for _, res := range r.Results {
		if res.Replay != nil && res.Replay.Err() != nil {
			r.ReplayFailures++
		}
		tp, err := rat.Parse(res.Throughput)
		if err != nil {
			return nil, fmt.Errorf("steadystate: sweep result %s has unparseable throughput %q: %w",
				res.Name, res.Throughput, err)
		}
		a := byKind[res.Kind]
		if a == nil {
			a = &acc{min: tp, max: tp, sum: rat.Zero()}
			byKind[res.Kind] = a
		}
		a.count++
		a.sum = rat.Add(a.sum, tp)
		if tp.Cmp(a.min) < 0 {
			a.min = tp
		}
		if tp.Cmp(a.max) > 0 {
			a.max = tp
		}
		a.vars += res.LPVars
		a.cons += res.LPConstraints
		a.nonzeros += res.LPNonZeros
		a.density += res.LPDensity
		a.pivots += res.LPPivots
		if res.LPPivots > a.maxPivot {
			a.maxPivot = res.LPPivots
		}
		if res.WarmStart {
			a.warmStarts++
		}
		if res.WarmReject != "" {
			a.warmRejects++
		}
		a.warmSaved += res.WarmPivotsSaved
	}
	r.Kinds = r.Kinds[:0]
	for kind, a := range byKind {
		mean := rat.Div(a.sum, rat.Int(int64(a.count)))
		r.Kinds = append(r.Kinds, &SweepKindStats{
			Kind:                 kind,
			Count:                a.count,
			MinThroughput:        a.min.RatString(),
			MaxThroughput:        a.max.RatString(),
			MeanThroughput:       mean.RatString(),
			TotalLPVars:          a.vars,
			TotalLPConstraints:   a.cons,
			TotalLPNonZeros:      a.nonzeros,
			MeanLPDensity:        a.density / float64(a.count),
			TotalLPPivots:        a.pivots,
			MaxLPPivots:          a.maxPivot,
			WarmStarts:           a.warmStarts,
			WarmRejects:          a.warmRejects,
			TotalWarmPivotsSaved: a.warmSaved,
		})
	}
	sort.Slice(r.Kinds, func(i, j int) bool { return r.Kinds[i].Kind < r.Kinds[j].Kind })
	return r, nil
}
