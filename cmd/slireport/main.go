// Command slireport reads SLI ledgers (the JSONL files batchsim -sli-ledger
// and the sweep engine write; see internal/obs/sli) from two or more
// historical runs and renders pass-rate and regression-trend tables across
// them. Ledger paths are positional, oldest first; each becomes one epoch
// labelled by its file (or parent directory) name.
//
//	slireport sweeps/jan/sli.jsonl sweeps/feb/sli.jsonl
//	slireport -csv trend.csv -html trend.html epoch1.jsonl epoch2.jsonl
//
// Exit status: 0 on success, 1 when -fail-on-regression is set and any
// scenario regressed, 2 on usage or input errors.
//
// The validation flags back the CI telemetry job and take no ledger
// arguments:
//
//	slireport -validate-ledger file.jsonl     # schema-check a ledger
//	slireport -validate-metrics file.txt      # check Prometheus text format
package main

import (
	"flag"
	"fmt"
	"os"

	"batchsched/internal/obs"
	"batchsched/internal/obs/sli"
)

func main() {
	var (
		csvPath  = flag.String("csv", "", "write the per-scenario/epoch trend CSV to this file")
		htmlPath = flag.String("html", "", "write the standalone HTML report to this file")
		tolPct   = flag.Float64("tol", 5, "regression tolerance in percent (TPS loss / p95 growth)")
		failOn   = flag.Bool("fail-on-regression", false, "exit 1 when any scenario regressed")
		valLedgr = flag.String("validate-ledger", "", "validate one SLI ledger file and exit")
		valProm  = flag.String("validate-metrics", "", "validate one Prometheus text file and exit")
	)
	flag.Parse()

	if *valLedgr != "" || *valProm != "" {
		validate(*valLedgr, *valProm)
		return
	}

	paths := flag.Args()
	if len(paths) < 1 {
		fmt.Fprintln(os.Stderr, "usage: slireport [flags] ledger.jsonl [ledger.jsonl ...]  (oldest first)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	epochs, err := sli.LoadEpochs(paths)
	if err != nil {
		fatal(err)
	}
	trends := sli.Trends(epochs, *tolPct)

	sli.PassRateTable(epochs, trends).Render(os.Stdout)
	fmt.Println()
	sli.TrendTable(epochs, trends, *tolPct).Render(os.Stdout)

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		if err := sli.WriteTrendCSV(f, epochs, trends); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
	if *htmlPath != "" {
		doc := sli.HTMLReport("SLI trend report", epochs, trends, *tolPct)
		if err := os.WriteFile(*htmlPath, []byte(doc), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *htmlPath)
	}

	if *failOn {
		for _, t := range trends {
			if t.Regressed {
				fmt.Fprintf(os.Stderr, "slireport: regression in %s\n", t.Scenario)
				os.Exit(1)
			}
		}
	}
}

// validate runs the CI-facing format checks and exits.
func validate(ledger, prom string) {
	check := func(path string, fn func(*os.File) error, what string) {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			fmt.Fprintf(os.Stderr, "slireport: %s %s: %v\n", what, path, err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid %s\n", path, what)
	}
	if ledger != "" {
		check(ledger, func(f *os.File) error { return sli.ValidateLedger(f) }, "SLI ledger")
	}
	if prom != "" {
		check(prom, func(f *os.File) error { return obs.ValidatePrometheus(f) }, "Prometheus text")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slireport:", err)
	os.Exit(2)
}
