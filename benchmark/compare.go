package main

// compare reads two -out files and judges b against a, per workload and
// end-to-end metric, by the bounds the benchmark fixed.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so a spread
// computed here is the one the driver computes. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median. One
// run has none: known is false.
func spread(xs []float64) (share float64, known bool) {
	if len(xs) < 2 {
		return 0, false
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs)), true
}

func showSpread(xs []float64) string {
	if s, known := spread(xs); known {
		return fmt.Sprintf("%.1f%%", s*100)
	}
	return "unknown"
}

// verdict judges candidate runs b against base runs a for one metric.
// unresolved: a side has fewer than two runs, so its spread is unknown,
// or a side's own spread exceeds the bound; either way the comparison
// cannot tell. worse: b's median is worse than a's by more than the
// bound. within: otherwise.
func verdict(def metricDef, a, b []float64) (ratioBA float64, v string) {
	ma, mb := median(a), median(b)
	worsening := (mb - ma) / ma
	if def.better == "higher" {
		worsening = -worsening
	}
	sa, knownA := spread(a)
	sb, knownB := spread(b)
	switch {
	case !knownA || !knownB || sa > def.bound || sb > def.bound:
		v = "unresolved"
	case worsening > def.bound:
		v = "worse"
	default:
		v = "within"
	}
	return mb / ma, v
}

// runSet is the end-to-end runs of one -out file: workload → metric →
// one value per run, and the window length they were all taken with.
type runSet struct {
	values  map[string]map[string][]float64
	seconds float64
}

// readRuns loads an -out file. Runs of different window lengths do not
// pool, so a file that mixes them is refused.
func readRuns(path string) (runSet, error) {
	rs := runSet{values: map[string]map[string][]float64{}}
	f, err := os.Open(path)
	if err != nil {
		return rs, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return rs, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if rs.seconds != 0 && r.Seconds != rs.seconds {
			return rs, fmt.Errorf("%s mixes %g s and %g s windows", path, rs.seconds, r.Seconds)
		}
		rs.seconds = r.Seconds
		if rs.values[r.Workload] == nil {
			rs.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			rs.values[r.Workload][name] = append(rs.values[r.Workload][name], m.Value)
		}
	}
	return rs, sc.Err()
}

// compare prints the table and returns how many pairings are worse.
func compare(out io.Writer, pathA, pathB string) (worse int, err error) {
	a, err := readRuns(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return 0, err
	}
	if a.seconds != b.seconds {
		return 0, fmt.Errorf("%s has %g s windows, %s has %g s", pathA, a.seconds, pathB, b.seconds)
	}
	fmt.Fprintf(out, "%-14s %-20s %4s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "runs", "a (median)", "b (median)", "b/a", "bound", "iqr a", "iqr b", "verdict")
	unresolved := 0
	for _, w := range workloads {
		for _, def := range endToEnd {
			va, vb := a.values[w.name][def.name], b.values[w.name][def.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r, v := verdict(def, va, vb)
			switch v {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(out, "%-14s %-20s %2d/%-2d %14.4f %14.4f %9.4f %6.0f%% %8s %8s  %s\n",
				w.name, def.name, len(va), len(vb), median(va), median(vb), r, def.bound*100, showSpread(va), showSpread(vb), v)
		}
	}
	fmt.Fprintf(out, "# b/a has a (%s) as its base; %d pairing(s) worse, %d unresolved (a verdict needs two runs a side)\n",
		pathA, worse, unresolved)
	return worse, nil
}
