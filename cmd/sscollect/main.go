// Command sscollect solves a steady-state collective on a platform or
// scenario file and prints the optimal throughput, the LP solution, and
// optionally the periodic schedule, extracted reduction trees, a protocol
// replay checked against its Lemma-1 window, and a machine-readable
// report.
//
// Usage:
//
//	sscollect -platform p.json -op scatter -source n0 -targets n1,n2
//	sscollect -platform p.json -op broadcast -source n0 -targets n1,n2 -schedule
//	sscollect -platform p.json -op gossip  -sources n0,n1 -targets n2,n3
//	sscollect -platform p.json -op reduce  -order n0,n1,n2 -target n0 -trees -schedule
//	sscollect -platform p.json -op gather  -order n0,n1,n2 -target n0 -blocksize 2
//	sscollect -platform p.json -op prefix  -order n0,n1,n2 -size 10
//	sscollect -platform p.json -op reducescatter -order n0,n1,n2 -schedule
//	sscollect -platform p.json -op allreduce -order n0,n1,n2 -schedule
//	sscollect -platform fig6 -op allreduce -simulate 1000
//	sscollect -platform scenario.json -report report.json
//	sscollect -op trace -in traces.jsonl -top 5   # summarize a sweep trace JSONL
//	sscollect -op warm -in warm.jsonl             # summarize a warm sweep's cold-vs-warm deltas
//
// A scenario file (cmd/topogen -spec) carries both the platform and the
// collective spec, so -op and the role flags become optional overrides;
// the same files drive cmd/sweep in batches (cmd/sweep -simulate replays
// a batch) and cmd/solverd over HTTP. -platform fig2|fig6|fig9 selects
// one of the paper's figure platforms with its canonical spec. -size and
// -blocksize reach Solve only when given, so a kind that does not take
// them refuses them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"strings"

	steadystate "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "sscollect: %v\n", err)
		os.Exit(1)
	}
}

// run executes the tool; factored out of main for testability.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sscollect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		platformFile = fs.String("platform", "", "platform or scenario JSON file, or fig2|fig6|fig9")
		op           = fs.String("op", "", "collective: scatter|broadcast|gossip|reduce|gather|prefix|reducescatter|allreduce (default: the scenario's spec, else scatter), or trace/warm to summarize a sweep's trace/result JSONL")
		source       = fs.String("source", "", "scatter source node name")
		sources      = fs.String("sources", "", "gossip source names, comma separated")
		targets      = fs.String("targets", "", "scatter/gossip target names, comma separated")
		order        = fs.String("order", "", "reduce/gather/prefix participant names in rank order")
		target       = fs.String("target", "", "reduce/gather target node name")
		size         = fs.String("size", "", "uniform message size (reduce, prefix, reducescatter, composite; default 1)")
		blockSize    = fs.String("blocksize", "", "per-participant block size (gather, composite; default 1)")
		fixedPeriod  = fs.Int64("fixedperiod", 0, "truncate the reduce tree family to this period (Section 4.6)")
		showSched    = fs.Bool("schedule", false, "print the periodic schedule (Gantt)")
		showTrees    = fs.Bool("trees", false, "print extracted reduction trees (reduce/gather)")
		simulate     = fs.Int("simulate", 0, "replay the protocol for N periods and check every sink set against its Lemma-1 window and, once a period repeats, its exact rate")
		latency      = fs.Bool("latency", false, "with -simulate: also report per-operation pipeline latency")
		reportFile   = fs.String("report", "", "write the solution summary as JSON to this file")
		traceIn      = fs.String("in", "", "with -op trace or -op warm: sweep JSONL to summarize (\"-\": stdin)")
		topSpans     = fs.Int("top", 5, "with -op trace: slowest spans to list")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *op == "trace" {
		// Trace summarization is an offline aggregation — no platform, no
		// solve — so it branches before scenario loading.
		return traceSummary(*traceIn, *topSpans, stdout)
	}
	if *op == "warm" {
		// Likewise offline: per-chain cold-vs-warm deltas from a warm
		// sweep's result JSONL.
		return warmSummary(*traceIn, stdout)
	}

	sc, err := loadScenario(*platformFile)
	if err != nil {
		return err
	}
	p, spec := sc.Platform, sc.Spec
	if *op != "" {
		spec.Kind = steadystate.Kind(*op)
	}
	if spec.Kind == "" {
		spec.Kind = steadystate.KindScatter
	}

	var lookupErr error
	lookup := func(name string) steadystate.NodeID {
		id, ok := p.Lookup(name)
		if !ok && lookupErr == nil {
			lookupErr = fmt.Errorf("unknown node %q", name)
		}
		return id
	}
	lookupList := func(csv string) []steadystate.NodeID {
		var out []steadystate.NodeID
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if name != "" {
				out = append(out, lookup(name))
			}
		}
		return out
	}
	if *source != "" {
		spec.Source = lookup(*source)
	}
	if *sources != "" {
		spec.Sources = lookupList(*sources)
	}
	if *targets != "" {
		spec.Targets = lookupList(*targets)
	}
	if *order != "" {
		spec.Order = lookupList(*order)
	}
	if *target != "" {
		spec.Target = lookup(*target)
	}
	if lookupErr != nil {
		return lookupErr
	}

	var opts []steadystate.SolveOption
	if *size != "" {
		sz, err := steadystate.ParseRat(*size)
		if err != nil {
			return fmt.Errorf("bad -size: %w", err)
		}
		opts = append(opts, steadystate.WithMessageSize(sz))
	}
	if *blockSize != "" {
		bs, err := steadystate.ParseRat(*blockSize)
		if err != nil {
			return fmt.Errorf("bad -blocksize: %w", err)
		}
		opts = append(opts, steadystate.WithBlockSize(bs))
	}
	if *fixedPeriod < 0 {
		return fmt.Errorf("bad -fixedperiod: %d is not a positive period", *fixedPeriod)
	}
	if *fixedPeriod > 0 {
		opts = append(opts, steadystate.WithFixedPeriod(big.NewInt(*fixedPeriod)))
	}

	sol, err := steadystate.Solve(context.Background(), p, spec, opts...)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, sol.String())

	if c, ok := sol.(steadystate.Certified); ok {
		app, trees, err := c.Certificate()
		if err != nil {
			return fmt.Errorf("trees: %w", err)
		}
		fmt.Fprintf(stdout, "%d reduction trees cover %s operations per period %s\n",
			len(trees), app.Ops.String(), app.Period.String())
		if *showTrees {
			pr := sol.Unwrap().(*steadystate.ReduceSolution).Problem
			for _, tr := range trees {
				fmt.Fprint(stdout, tr.String(pr))
			}
		}
	}

	if *showSched {
		sched, err := sol.Schedule()
		if err != nil {
			return fmt.Errorf("schedule: %w", err)
		}
		fmt.Fprint(stdout, sched.Gantt())
	}

	if *simulate > 0 {
		if err := simReport(stdout, sol, *simulate, *latency); err != nil {
			return err
		}
	}

	if *reportFile != "" {
		rep, err := sol.Report()
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportFile, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *reportFile, err)
		}
		fmt.Fprintf(stderr, "wrote %s\n", *reportFile)
	}
	return nil
}

// loadScenario loads a scenario or bare-platform JSON file, or one of the
// canned figure platforms with their canonical specs.
func loadScenario(spec string) (*steadystate.Scenario, error) {
	switch spec {
	case "fig2":
		p, src, targets := steadystate.PaperFig2()
		return &steadystate.Scenario{Platform: p, Spec: steadystate.ScatterSpec(src, targets...)}, nil
	case "fig6":
		p, order, target := steadystate.PaperFig6()
		return &steadystate.Scenario{Platform: p, Spec: steadystate.ReduceSpec(order, target)}, nil
	case "fig9":
		p, order, target := steadystate.PaperFig9()
		return &steadystate.Scenario{Platform: p, Spec: steadystate.ReduceSpec(order, target)}, nil
	case "":
		return nil, fmt.Errorf("need -platform (a JSON file or fig2|fig6|fig9)")
	}
	data, err := os.ReadFile(spec)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", spec, err)
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("parse %s: %w", spec, err)
	}
	if _, ok := probe["platform"]; ok {
		sc := &steadystate.Scenario{}
		if err := json.Unmarshal(data, sc); err != nil {
			return nil, fmt.Errorf("parse scenario %s: %w", spec, err)
		}
		return sc, nil
	}
	p := steadystate.NewPlatform()
	if err := json.Unmarshal(data, p); err != nil {
		return nil, fmt.Errorf("parse %s: %w", spec, err)
	}
	return &steadystate.Scenario{Platform: p}, nil
}

// simReport replays the solution and prints the Lemma-1 verdict of every
// sink set: one line for a base kind, one per member for a composite.
func simReport(stdout io.Writer, sol steadystate.Solution, periods int, latency bool) error {
	check, err := steadystate.CheckReplay(sol, periods)
	if err != nil {
		return err
	}
	steady := "no period repeats"
	if check.Steady >= 0 {
		steady = fmt.Sprintf("repeats from period %d", check.Steady)
	}
	fmt.Fprintf(stdout, "simulated %d periods of length %s (init ends period %d, %s, depth bound %d)\n",
		periods, check.Period, check.FirstFull, steady, check.DepthBound)
	for _, w := range check.Windows {
		verdict := "ok"
		if !w.OK {
			verdict = "FAIL: " + w.Reason
		}
		fmt.Fprintf(stdout, "  %s: delivered %s ops, window [%s, %s]: %s\n",
			w.Label(), w.Delivered, w.Floor, w.Bound, verdict)
	}
	if latency {
		m, err := sol.SimModel()
		if err != nil {
			return fmt.Errorf("simulation model: %w", err)
		}
		lat, err := steadystate.SimulateLatency(m, periods)
		if err != nil {
			return fmt.Errorf("latency simulation: %w", err)
		}
		fmt.Fprintf(stdout, "pipeline latency: min %d, mean %.2f, max %d periods\n",
			lat.MinLatency, lat.MeanLatency(), lat.MaxLatency)
	}
	return nil
}
