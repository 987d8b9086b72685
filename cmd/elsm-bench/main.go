// Command elsm-bench regenerates every table and figure of the paper's
// evaluation (Figures 2, 5a–5c, 6a–6c, 7a, 7b, 8 and Table 1).
//
// Usage:
//
//	elsm-bench -exp all                 # every figure at default scale (1/32)
//	elsm-bench -exp fig5a,fig6a -v      # selected figures with progress
//	elsm-bench -exp fig2 -scale 64      # smaller/faster sweep
//	elsm-bench -exp table1              # the qualitative design matrix
//
// Sizes are the paper's divided by -scale, with the simulated EPC scaled
// identically, so every crossover of the paper's figures is preserved.
// -scale 1 reproduces paper-absolute sizes (needs tens of GB of RAM and
// hours of runtime).
//
// Latency quantiles in every table come from the store's shared
// log-bucket histograms (internal/obs) — the same estimator the server's
// /metrics endpoint exposes — so bench rows compare directly against
// production scrapes, including the instrumentation-overhead A/B guard
// in the repo's bench tests.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"elsm/internal/bench"
	"elsm/internal/costmodel"
)

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiments: table1,fig2,fig5a,fig5b,fig5c,fig6a,fig6b,fig6c,fig7a,fig7b,fig8,ablation-earlystop,ablation-compaction,ablation-shards,ablation-repl or 'all'")
		scale    = flag.Int("scale", 32, "divide the paper's byte sizes by this factor (EPC scales too)")
		ops      = flag.Int("ops", 1200, "measured operations per data point")
		costName = flag.String("cost", "calibrated", "SGX cost model: calibrated | zero")
		jsonDir  = flag.String("json", "", "also write each result as machine-readable BENCH_<name>.json into this directory (empty: off)")
		verbose  = flag.Bool("v", false, "print per-point progress")
		listFlag = flag.Bool("list", false, "list available experiments and exit")
	)
	flag.Parse()

	if *listFlag {
		fmt.Println("table1")
		for _, e := range bench.All() {
			fmt.Println(e.Name)
		}
		return
	}

	var cost costmodel.Model
	switch *costName {
	case "calibrated":
		cost = costmodel.Calibrated()
	case "zero":
		cost = costmodel.Zero
	default:
		fmt.Fprintf(os.Stderr, "unknown cost model %q\n", *costName)
		os.Exit(2)
	}
	cfg := bench.Config{Scale: *scale, Ops: *ops, Cost: &cost, Verbose: *verbose}

	selected := map[string]bool{}
	runAll := false
	for _, name := range strings.Split(*expFlag, ",") {
		name = strings.TrimSpace(name)
		if name == "all" {
			runAll = true
			continue
		}
		if name != "" {
			selected[name] = true
		}
	}

	fmt.Printf("# eLSM paper reproduction — scale 1/%d, %d ops/point, cost=%s\n\n", *scale, *ops, *costName)
	if runAll || selected["table1"] {
		fmt.Println(bench.Table1())
	}
	exitCode := 0
	emit := func(tbl bench.Table) {
		fmt.Println(tbl.Format())
		if *jsonDir != "" {
			path, err := tbl.WriteJSON(*jsonDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
				exitCode = 1
				return
			}
			fmt.Printf("(wrote %s)\n\n", path)
		}
	}
	for _, exp := range bench.All() {
		if !runAll && !selected[exp.Name] {
			continue
		}
		start := time.Now()
		tbl, err := exp.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", exp.Name, err)
			exitCode = 1
			continue
		}
		emit(tbl)
		fmt.Printf("(%s completed in %v)\n\n", exp.Name, time.Since(start).Round(time.Millisecond))
	}
	os.Exit(exitCode)
}
