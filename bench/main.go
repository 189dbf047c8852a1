// Command bench is the repository benchmark: it generates seeded inputs
// with cmd/topogen, runs one of four workloads against the solver, checks
// every answer against exact reference solutions, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as one
// JSON object on the last line of standard output.
//
//	bench --workload sweep-cold --seed 42 --seconds 20 --trace 0
//	bench --seed 42                       # all four workloads, one process each
//	bench --seed 42 --repeat 5 --out bench/baseline/seed42.json
//
// See README.md for the workloads, the metrics and the calibration.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // JSONL file receiving the traced run's spans
	out      string // file receiving the full result (or the baseline)
	repeat   int
	topogen  string // path of the topogen binary
	work     string // scratch directory for generated inputs
	root     string // repository root (fixture scenarios)

	// Test seams. scale, when positive, shrinks every generated batch so
	// the package's tests run each workload in seconds; tamper edits the
	// reference solutions after set-up, to prove a wrong answer is counted
	// as a failure.
	scale  float64
	tamper func(refs map[string]*reference)
}

// runDeadline bounds one workload process; runs stop measuring well before.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if cfg.workload == "" {
		return runAll(cfg, stdout, stderr)
	}
	return runOne(cfg, stdout, stderr)
}

// runOne runs cfg.workload and prints its result. It exits non-zero when
// the run could not finish or any operation failed its correctness check.
func runOne(cfg *config, stdout, stderr io.Writer) int {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := runWorkload(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := emit(cfg, res, stdout); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed their correctness check\n",
			cfg.workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four, each in its own process)")
	fs.Int64Var(&cfg.seed, "seed", 42, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per workload")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", "", "with --trace 1, write the recorded spans to this JSONL file")
	fs.StringVar(&cfg.out, "out", "", "write the full result JSON (or, with --repeat, the baseline) to this file")
	fs.IntVar(&cfg.repeat, "repeat", 0, "run two alternating sets of this many runs per workload and summarise them (baseline mode)")
	fs.StringVar(&cfg.topogen, "topogen", ".bench_build/bin/topogen", "topogen binary")
	fs.StringVar(&cfg.work, "work", ".bench_build/work", "directory for generated inputs")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if cfg.workload != "" && workloadByName(cfg.workload) == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.repeat < 0 || (cfg.repeat > 0 && cfg.workload != "") {
		return nil, fmt.Errorf("--repeat runs every workload; drop --workload")
	}
	if cfg.out != "" && cfg.workload == "" && cfg.repeat == 0 {
		return nil, fmt.Errorf("--out needs --workload or --repeat")
	}
	return cfg, nil
}

// value is one metric as printed: a number and its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the contract form of the last output line.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result is the outcome of one workload run: its output line, plus the
// unnormalised timings beside their normalised metrics, for the baseline.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	line
	Raw map[string]value `json:"raw,omitempty"`
}

// emit prints the human-readable metric table, then the JSON result line,
// and writes the full result to --out.
func emit(cfg *config, res *result, stdout io.Writer) error {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "%s seed %d: %d attempted, %d failed\n", res.Workload, res.Seed, res.Attempted, res.Failed)
	for _, d := range defs {
		v := res.Metrics[d.name]
		fmt.Fprintf(stdout, "  %-28s %14.4f %s\n", d.name, v.Value, v.Unit)
	}
	data, err := json.Marshal(res.line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if cfg.out == "" {
		return nil
	}
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.out, append(full, '\n'), 0o644)
}
