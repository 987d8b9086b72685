// Command benchmark is the repository's benchmark (BENCHMARK.json): one
// workload per invocation, four trials of the same work, every output
// checked, every metric printed by name with its unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of: read-zipf, scan-short, write-sustained, wire-mixed")
	seed := fs.Int64("seed", 1, "picks the clients' key choices and read/write coins")
	seconds := fs.Float64("seconds", 12, "measured time of the whole run at reference speed, split evenly over the passes")
	trace := fs.Int("trace", 0, "1 = traced run: spans, ledger probes, per-layer metrics")
	traceOut := fs.String("trace-out", "trace.json", "where the traced run writes its spans")
	aa := fs.String("aa-report", "", "print the A/A report for this AA.runs.jsonl and exit")
	spec := fs.Bool("spec", false, "print BENCHMARK.json as the program's tables define it and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spec {
		data, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
		return 0
	}
	if *aa != "" {
		if err := aaReport(*aa, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	return execute(&runConfig{W: w, Seed: *seed, Seconds: *seconds, Keys: datasetKeys, Trace: *trace == 1, TraceOut: *traceOut}, stdout, stderr)
}

// execute runs one configuration and prints the header line and the result
// line. It returns the exit code: non-zero for any failed operation, audit
// finding, ErrAuthFailed or other error.
func execute(cfg *runConfig, stdout, stderr io.Writer) int {
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(map[string]interface{}{"header": rep.Header}); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	specs := endToEnd
	if cfg.Trace {
		specs = perLayer
	}
	res := result{Correct: rep.correct(), Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		res.Metrics[s.Name] = metricValue{Value: rep.Metrics[s.Name], Unit: s.Unit}
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !rep.correct() {
		fmt.Fprintf(stderr, "benchmark: %d of %d operations failed: %v\n", rep.Failed, rep.Attempted, rep.Err)
		return 1
	}
	return 0
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }
