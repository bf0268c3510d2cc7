// Command benchmark is the repository's performance instrument: six
// JustQL workloads driven over HTTP against an engine opened as
// just-server opens it, end-to-end metrics with regression bounds, and
// a layered replay that attributes a statement across server → sql →
// core → index → table → kv → rpc. See README.md.
//
//	bash benchmark/run.sh --workload order_st --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload all --out a.jsonl
//	bash benchmark/run.sh compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// record is one line of an -out file: a run and where it was taken.
type record struct {
	result
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: benchmark compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		worse, err := compare(os.Stdout, os.Args[2], os.Args[3])
		if err != nil {
			fatal(err)
		}
		if worse > 0 {
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed of the generated rows and statements")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics (all runs both)")
	out := flag.String("out", "", "append each run as a JSON line to this file")
	flag.Parse()
	// The engine logs slow statements; the benchmark times every one.
	log.SetOutput(io.Discard)

	if *workload == "all" {
		if !runAll(*seed, *seconds, *out) {
			os.Exit(1)
		}
		return
	}
	res, err := run(runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		outDir: "benchmark/out", scale: 1,
	})
	if err != nil {
		fatal(err)
	}
	report(res)
	if *out != "" {
		if err := appendRecord(*out, res); err != nil {
			fatal(err)
		}
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in both modes, each in a process of its
// own — as the driver runs them — so that no run inherits another's
// heap or its resident high-water mark.
func runAll(seed int64, seconds float64, out string) bool {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	ok := true
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", trace, "-out", out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace=%s: %v\n", w.name, trace, err)
				ok = false
			}
		}
	}
	return ok
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// report prints every metric by name with its unit, then the one-line
// JSON object the driver reads.
func report(r *result) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced run)"
	}
	fmt.Printf("# %s seed=%d window=%gs clients=%d %s\n", r.Workload, r.Seed, r.Seconds, clients, mode)
	fmt.Printf("# engine: just-server defaults except BlockCacheBytes=%d Codec=%s MemtableBytes=%d; DiskThroughputMBps=0, WAL on\n",
		blockCacheBytes, blockCodec, memtableBytes)
	fmt.Printf("# dataset %d B on disk = %.1fx block cache (%d B); samples: %d queries, %d inserts, %d replies verified\n",
		r.DatasetBytes, float64(r.DatasetBytes)/float64(r.CacheBytes), r.CacheBytes,
		r.Samples["query"], r.Samples["ingest"], r.Samples["verified"])
	fmt.Printf("# host: the pilot ran %.3fx its reference of %g us over the window (%d samples)",
		r.HostSlowdown, pilotRefUS, r.Samples["pilot"])
	if r.Trace {
		fmt.Printf("; the traced run replayed %d operations", r.Samples["replayed"])
	} else {
		fmt.Printf("; times below are divided by that, rates multiplied. As the clock gave them:")
		for _, d := range endToEnd {
			if v, ok := r.Raw[d.name]; ok {
				fmt.Printf(" %s=%.4f", d.name, v)
			}
		}
	}
	fmt.Println()
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %16.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Printf("%-40s %16.6f %s\n", "failed_frac", float64(r.Failed)/float64(r.Attempted), "ratio")
	for _, n := range r.Notes {
		fmt.Println("# note:", n)
	}
	line, _ := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Println(string(line))
}

func appendRecord(path string, r *result) error {
	sha := "unknown"
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(b))
	}
	line, err := json.Marshal(record{*r, sha, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0)})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
