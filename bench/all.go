package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// runAll runs every workload, each in its own process (this binary,
// re-executed with --workload), so one workload's heap and peak RSS never
// leak into another's. With --repeat n it runs two sets of n runs per
// workload, alternating the sets, and writes their summary to --out: the
// committed baseline.
func runAll(cfg *config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	sets, reps := 1, 1
	if cfg.repeat > 0 {
		sets, reps = 2, cfg.repeat
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(cfg.work, "runs-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	runs := make(map[string][][]*result) // workload → set → runs
	code := 0
	for i := 0; i < reps; i++ {
		for s := 0; s < sets; s++ {
			for _, def := range workloads {
				res, err := runChild(exe, cfg, def.name, filepath.Join(tmp, "result.json"), stdout, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", def.name, err)
					code = 1
					continue
				}
				if runs[def.name] == nil {
					runs[def.name] = make([][]*result, sets)
				}
				runs[def.name][s] = append(runs[def.name][s], res)
			}
		}
	}
	if cfg.repeat > 0 && cfg.out != "" {
		if err := writeBaseline(cfg, runs); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// runChild runs one workload in a child process, forwarding its output,
// and returns its full result.
func runChild(exe string, cfg *config, name, out string, stdout, stderr io.Writer) (*result, error) {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{
		"--workload", name,
		"--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"--trace", trace,
		"--topogen", cfg.topogen,
		"--work", cfg.work,
		"--root", cfg.root,
		"--out", out,
	}
	if cfg.spans != "" {
		args = append(args, "--spans", cfg.spans+"."+name+".jsonl")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	res := &result{}
	return res, json.Unmarshal(data, res)
}

// summary is one metric's values over a set of runs.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarise(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, Values: xs}
}

// baselineMetric is one metric of the baseline: per set of runs, its
// (normalised) value and, for timings, the raw value.
type baselineMetric struct {
	Unit string    `json:"unit"`
	Sets []summary `json:"sets"`
	Raw  []summary `json:"raw,omitempty"`
}

type baseline struct {
	Command   string                                `json:"command"`
	Seed      int64                                 `json:"seed"`
	Seconds   float64                               `json:"seconds"`
	Trace     bool                                  `json:"trace"`
	RefIPS    float64                               `json:"ref_calib_ips"`
	Machine   string                                `json:"machine"`
	Workloads map[string]map[string]*baselineMetric `json:"workloads"`
}

func writeBaseline(cfg *config, runs map[string][][]*result) error {
	trace := ""
	if cfg.trace {
		trace = " --trace 1"
	}
	b := &baseline{
		Command: fmt.Sprintf("bash bench/run.sh --seed %d --seconds %g --repeat %d%s --out %s",
			cfg.seed, cfg.seconds, cfg.repeat, trace, cfg.out),
		Seed:      cfg.seed,
		Seconds:   cfg.seconds,
		Trace:     cfg.trace,
		RefIPS:    refIPS,
		Machine:   fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
		Workloads: map[string]map[string]*baselineMetric{},
	}
	for name, sets := range runs {
		metrics := map[string]*baselineMetric{}
		for _, set := range sets {
			vals := map[string][]float64{}
			raws := map[string][]float64{}
			for _, res := range set {
				for k, v := range res.Metrics {
					vals[k] = append(vals[k], v.Value)
					if metrics[k] == nil {
						metrics[k] = &baselineMetric{Unit: v.Unit}
					}
				}
				for k, v := range res.Raw {
					raws[k] = append(raws[k], v.Value)
				}
			}
			for k, m := range metrics {
				m.Sets = append(m.Sets, summarise(vals[k]))
				if len(raws[k]) > 0 {
					m.Raw = append(m.Raw, summarise(raws[k]))
				}
			}
		}
		b.Workloads[name] = metrics
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		return err
	}
	return os.WriteFile(cfg.out, buf.Bytes(), 0o644)
}
