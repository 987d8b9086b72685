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
// A figure value is the wall time measured on this box plus the simulated
// time of the enclave events counted meanwhile (internal/costmodel: virtual
// time, nothing is burned); the tables print the simulated share in
// brackets, and -json writes both components of every figure point into one
// BENCH_figures.json (each ablation into its own BENCH_<name>.json).
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
)

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiments: table1,fig2,fig5a,fig5b,fig5c,fig6a,fig6b,fig6c,fig7a,fig7b,fig8,ablation-earlystop,ablation-compaction,ablation-shards,ablation-repl or 'all'")
		scale    = flag.Int("scale", 32, "divide the paper's byte sizes by this factor (EPC scales too)")
		ops      = flag.Int("ops", 1200, "measured operations per data point")
		jsonDir  = flag.String("json", "", "also write the figures as BENCH_figures.json and each ablation as BENCH_<name>.json into this directory (empty: off)")
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

	cfg := bench.Config{Scale: *scale, Ops: *ops, Verbose: *verbose}

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

	fmt.Printf("# eLSM paper reproduction — scale 1/%d, %d ops/point\n\n", *scale, *ops)
	if runAll || selected["table1"] {
		fmt.Println(bench.Table1())
	}
	exitCode := 0
	wrote := func(path string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			exitCode = 1
			return
		}
		fmt.Printf("(wrote %s)\n\n", path)
	}
	var figures []bench.Table
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
		fmt.Println(tbl.Format())
		fmt.Printf("(%s completed in %v)\n\n", exp.Name, time.Since(start).Round(time.Millisecond))
		if strings.HasPrefix(exp.Name, "fig") {
			figures = append(figures, tbl)
		} else if *jsonDir != "" {
			wrote(tbl.WriteJSON(*jsonDir))
		}
	}
	if *jsonDir != "" && len(figures) > 0 {
		wrote(cfg.WriteFigures(*jsonDir, figures))
	}
	os.Exit(exitCode)
}
