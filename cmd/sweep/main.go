// Command sweep runs the sharded scenario-sweep engine (internal/sweep)
// over a batch of scenario files: every scenario is solved on its own
// platform with bounded parallelism, and the outcomes are aggregated into
// one deterministic SweepReport (per-kind throughput table, LP cost
// counters, solve-time percentiles, failure list). Malformed or
// unsolvable scenarios land in the failure list; they never abort the
// sweep. With -simulate K every solved scenario is also replayed for K
// periods and checked against its Lemma-1 window [TP·K − warmup, TP·K]
// and, from the first period that repeats, its exact rate TP·T per period
// at every sink; any failed verdict makes the command exit non-zero. The
// replay stops at the repeating period, so a large K costs no more than a
// small one.
//
// Usage:
//
//	sweep -dir scenarios/                      # sweep every *.json in a directory
//	sweep -dir scenarios/ -glob 'tiers-*.json' # restrict by glob
//	sweep a.json b.json c.json                 # sweep explicit files
//	sweep -dir s/ -jobs 8 -timeout 30s         # 8 workers, 30s per solve
//	sweep -dir s/ -shard 0/4                   # this process solves shard 0 of 4
//	sweep -dir s/ -out report.json -jsonl log.jsonl
//	sweep -dir s/ -trace traces.jsonl          # span-structured solve traces, one line per scenario
//	sweep -dir chains/ -warm                   # warm-start each perturbation chain through a basis cache
//	sweep -simulate 1000 a/*.json b/*.json     # replay 1000 periods per scenario, check each verdict
//
// Flags go before the file arguments: flag parsing stops at the first
// file.
//
// The end-to-end pipeline from a single seed (generate → sweep):
//
//	topogen -kind tiers -count 16 -seed 42 -spec -op scatter -out scenarios/
//	sweep -dir scenarios/ -jobs 8 -out report.json
//
// The warm-start pipeline over perturbation chains (generate chains of
// slightly-mutated platforms, then re-solve each chain incrementally —
// throughputs are bit-identical to a cold sweep, phase-1 pivots are not):
//
//	topogen -kind tiers -count 4 -perturb 8 -seed 42 -spec -op scatter -out chains/
//	sweep -dir chains/ -warm -out warm.json
//
// Everything in the report except its "timing" block is deterministic:
// -jobs 1 and -jobs 8 produce identical aggregates, and complementary
// -shard i/n runs union to the full result set. The JSONL stream (-jsonl)
// is the live view — one line per completed scenario, in completion
// order, each carrying the full solution report or the error.
//
// For a long-running serving counterpart of this batch engine — the same
// scenario files posted over HTTP with a shared basis cache and a report
// cache —
// see cmd/solverd; its /sweep endpoint streams this same record format.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	steadystate "repro"
	"repro/internal/sweep"
)

func main() {
	// Ctrl-C cancels the run context: workers stop, the partial report
	// and JSONL lines written so far survive.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
}

// run executes the tool; factored out of main for testability.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir     = fs.String("dir", "", "directory of scenario JSON files to sweep")
		glob    = fs.String("glob", "*.json", "base-name glob selecting files within -dir")
		jobs    = fs.Int("jobs", 0, "max concurrent solves (0: GOMAXPROCS)")
		shard   = fs.String("shard", "", "solve shard i of n, as \"i/n\" (deterministic split of the name-sorted batch)")
		timeout = fs.Duration("timeout", 0, "per-solve deadline (0: none)")
		out     = fs.String("out", "", "write the aggregated SweepReport JSON here (default stdout)")
		jsonl   = fs.String("jsonl", "", "stream one JSON line per completed scenario to this file (\"-\": stderr)")
		trace   = fs.String("trace", "", "solve with tracing and stream one trace JSON line per solved scenario to this file (\"-\": stderr)")
		warm    = fs.Bool("warm", false, "warm-start perturbation chains: group scenarios by name stem (topogen -perturb suffixes), solve each chain in order through a shared basis cache")
		replay  = fs.Int("simulate", 0, "replay each solved scenario for N periods and check it against its Lemma-1 window; a failed verdict exits non-zero (0: no replay)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var jobsList []sweep.Job
	if *dir != "" {
		loaded, err := sweep.LoadDir(*dir, *glob)
		if err != nil {
			return err
		}
		jobsList = loaded
	}
	jobsList = append(jobsList, sweep.LoadFiles(fs.Args())...)
	if len(jobsList) == 0 {
		return fmt.Errorf("no scenarios to sweep (use -dir and/or file arguments)")
	}

	opts := sweep.Options{Jobs: *jobs, SolveTimeout: *timeout, Warm: *warm, Simulate: *replay}
	if *shard != "" {
		// Strict i/n parsing: trailing garbage must not silently run the
		// wrong split in a multi-process deployment.
		i, n, ok := strings.Cut(*shard, "/")
		var err1, err2 error
		if ok {
			opts.ShardIndex, err1 = strconv.Atoi(i)
			opts.ShardCount, err2 = strconv.Atoi(n)
		}
		if !ok || err1 != nil || err2 != nil {
			return fmt.Errorf("bad -shard %q (want \"i/n\")", *shard)
		}
		if opts.ShardCount < 1 || opts.ShardIndex < 0 || opts.ShardIndex >= opts.ShardCount {
			return fmt.Errorf("bad -shard %q: index must be in [0,n)", *shard)
		}
	}
	switch *jsonl {
	case "":
	case "-":
		opts.JSONL = stderr
	default:
		f, err := os.Create(*jsonl)
		if err != nil {
			return fmt.Errorf("create -jsonl: %w", err)
		}
		defer f.Close()
		opts.JSONL = f
	}
	switch *trace {
	case "":
	case "-":
		opts.Trace = stderr
	default:
		f, err := os.Create(*trace)
		if err != nil {
			return fmt.Errorf("create -trace: %w", err)
		}
		defer f.Close()
		opts.Trace = f
	}

	start := time.Now()
	report, runErr := sweep.Run(ctx, jobsList, opts)
	if report == nil {
		return runErr
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		if _, err := stdout.Write(data); err != nil {
			return err
		}
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", *out, err)
	}

	workers := *jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(stderr, "sweep: %d scenarios, %d solved, %d failed, %d platform(s), %d workers in %v\n",
		report.Scenarios, report.Solved, report.Failed, report.Platforms,
		workers, time.Since(start).Round(time.Millisecond))
	if runErr != nil {
		return fmt.Errorf("sweep interrupted (partial report written): %w", runErr)
	}
	if report.ReplayFailures > 0 {
		printReplayFailures(stderr, report)
		return fmt.Errorf("%d scenario(s) failed the replay check", report.ReplayFailures)
	}
	return nil
}

// printReplayFailures writes one line per result whose replay verdict
// failed, naming it by file and kind: a batch over several directories
// holds one result per directory under the same file name.
func printReplayFailures(w io.Writer, report *steadystate.SweepReport) {
	for _, res := range report.Results {
		if res.Replay == nil {
			continue
		}
		if err := res.Replay.Err(); err != nil {
			fmt.Fprintf(w, "sweep: %s (%s): replay: %v\n", res.Name, res.Kind, err)
		}
	}
}
