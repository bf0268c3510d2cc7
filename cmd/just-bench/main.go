// Command just-bench regenerates every table and figure of the paper's
// evaluation (Section VIII). Run everything:
//
//	just-bench -dir /tmp/just-bench
//
// or one experiment:
//
//	just-bench -dir /tmp/just-bench -exp fig12a
//
// Each cell of the paper's rows and series is written to stdout as one
// JSON line: measured and modeled milliseconds with the per-query median
// counts behind them, a size, or the failure that stopped a system.
// EXPERIMENTS.md maps each experiment to the paper's figure and records
// the expected shape.
package main

import (
	"flag"
	"log"
	"os"
	"strings"

	"just/internal/bench"
)

func main() {
	dir := flag.String("dir", "", "scratch directory (required; contents are overwritten)")
	exp := flag.String("exp", "all", "experiment id or 'all' (ids: "+strings.Join(bench.Experiments(), ", ")+")")
	scale := flag.String("scale", "medium", "dataset scale: small | medium")
	queries := flag.Int("queries", 10, "randomized queries per data point (paper: 100)")
	seed := flag.Int64("seed", 2019, "generator seed")
	flag.Parse()

	if *dir == "" {
		tmp, err := os.MkdirTemp("", "just-bench-*")
		if err != nil {
			log.Fatalf("just-bench: %v", err)
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	}
	r := bench.NewRunner(bench.Options{
		Dir:     *dir,
		Out:     os.Stdout,
		Scale:   bench.Scale(*scale),
		Queries: *queries,
		Seed:    *seed,
	})
	var err error
	if *exp == "all" {
		err = r.RunAll()
	} else {
		err = r.Run(*exp)
	}
	if err != nil {
		log.Fatalf("just-bench: %v", err)
	}
}
