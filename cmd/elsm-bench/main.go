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
// An -exp name that is not in -list is refused (exit 2).
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
// BENCH_figures.json.
//
// The measured mean comes from the log-bucket histograms of internal/obs —
// the same estimator the server's /metrics endpoint exposes — so bench rows
// compare directly against production scrapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"elsm/internal/bench"
)

// names lists every -exp value but "all", in -list order.
func names() []string {
	out := []string{"table1"}
	for _, e := range bench.All() {
		out = append(out, e.Name)
	}
	return out
}

// selectExperiments resolves a comma-separated -exp value into whether
// Table 1 is printed and the figures to run, in paper order. A name it does
// not know is an error, so a stale name in a script cannot pass green.
func selectExperiments(spec string) (table1 bool, figs []bench.Experiment, err error) {
	valid := append([]string{"all"}, names()...)
	selected := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if !slices.Contains(valid, name) {
			return false, nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(valid, ", "))
		}
		selected[name] = true
	}
	all := selected["all"]
	for _, e := range bench.All() {
		if all || selected[e.Name] {
			figs = append(figs, e)
		}
	}
	return all || selected["table1"], figs, nil
}

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiments from -list, or 'all'")
		scale    = flag.Int("scale", 32, "divide the paper's byte sizes by this factor (EPC scales too)")
		ops      = flag.Int("ops", 1200, "measured operations per data point")
		jsonDir  = flag.String("json", "", "also write the figures as BENCH_figures.json into this directory (empty: off)")
		verbose  = flag.Bool("v", false, "print per-point progress")
		listFlag = flag.Bool("list", false, "list available experiments and exit")
	)
	flag.Parse()

	if *listFlag {
		fmt.Println(strings.Join(names(), "\n"))
		return
	}
	table1, figs, err := selectExperiments(*expFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "elsm-bench: %v\n", err)
		os.Exit(2)
	}

	cfg := bench.Config{Scale: *scale, Ops: *ops, Verbose: *verbose}
	fmt.Printf("# eLSM paper reproduction — scale 1/%d, %d ops/point\n\n", *scale, *ops)
	if table1 {
		fmt.Println(bench.Table1())
	}
	exitCode := 0
	var tables []bench.Table
	for _, exp := range figs {
		start := time.Now()
		tbl, err := exp.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", exp.Name, err)
			exitCode = 1
			continue
		}
		fmt.Println(tbl.Format())
		fmt.Printf("(%s completed in %v)\n\n", exp.Name, time.Since(start).Round(time.Millisecond))
		tables = append(tables, tbl)
	}
	if *jsonDir != "" && len(tables) > 0 {
		if path, err := cfg.WriteFigures(*jsonDir, tables); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			exitCode = 1
		} else {
			fmt.Printf("(wrote %s)\n\n", path)
		}
	}
	os.Exit(exitCode)
}
