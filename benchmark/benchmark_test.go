package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestPercentileAndSampleCountRule(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %g", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no sample is not NaN")
	}
	// A tail percentile needs ten samples beyond it.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{199, 0.95, false}, {200, 0.95, true}, {999, 0.99, false}, {1000, 0.99, true}, {20, 0.50, true}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestPilotLevel(t *testing.T) {
	// The harmonic mean: half the time at the reference speed and half
	// at a third of it does two thirds of the work, so the level is 1.5x.
	if got := slowdown([]float64{pilotRefUS, 3 * pilotRefUS}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("slowdown = %g, want 1.5", got)
	}
	// One sample stretched a hundredfold by a collection cycle barely counts.
	us := make([]float64, 100)
	for i := range us {
		us[i] = pilotRefUS
	}
	us[7] = 100 * pilotRefUS
	if got := slowdown(us); got < 1 || got > 1.011 {
		t.Errorf("slowdown with one outlier in a hundred = %g, want within 1 %% of 1", got)
	}
	if us := startTickPilot().stop(); len(us) < 1 || us[0] <= 0 {
		t.Errorf("the ticking pilot returned %v", us)
	}
}

func mkSpan(name string, start, end int64) span {
	return span{Name: name, Start: start, End: end, Parent: spanParent[name]}
}

func TestSelfTimes(t *testing.T) {
	// Durations: request 1000, execute 700, parse 10, plan 20, core 600,
	// scan 500, index 30, kv 400. Intervals are separate calls, not
	// nested; only durations count.
	op := []span{
		mkSpan("index.plan", 0, 30), mkSpan("kv.scan", 40, 440), mkSpan("table.scan", 500, 1000),
		mkSpan("core.op", 1100, 1700), mkSpan("sql.parse", 1800, 1810), mkSpan("sql.plan", 1900, 1920),
		mkSpan("sql.execute", 2000, 2700), mkSpan("server.request", 3000, 4000),
	}
	self := selfTimes(op)
	want := map[string]int64{
		"server.request": 300, "sql.execute": 70, "sql.parse": 10, "sql.plan": 20,
		"core.op": 100, "table.scan": 70, "index.plan": 30, "kv.scan": 400,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v\nwant %v", self, want)
	}

	// Children measured longer than their parent are not clipped: the
	// parent's self time goes negative by exactly the excess, and the
	// tree still sums to the root.
	op = []span{
		mkSpan("index.plan", 0, 50), mkSpan("kv.scan", 0, 900), mkSpan("table.scan", 0, 800),
		mkSpan("core.op", 0, 750), mkSpan("sql.parse", 0, 10), mkSpan("sql.plan", 0, 20),
		mkSpan("exec.agg", 0, 100), mkSpan("sql.execute", 0, 760), mkSpan("server.request", 0, 1000),
	}
	self = selfTimes(op)
	want = map[string]int64{
		"server.request": 240, "sql.execute": 760 - 10 - 20 - 100 - 750, "sql.parse": 10, "sql.plan": 20, "exec.agg": 100,
		"core.op": 750 - 800, "table.scan": 800 - 50 - 900, "index.plan": 50, "kv.scan": 900,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v\nwant %v", self, want)
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != 1000 {
		t.Errorf("self times sum to %d, want the root's 1000", sum)
	}
}

func TestQuartilesFollowPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g, %g; want 0.75, 2.25", q1, q3)
	}
	if got, known := spread(xs); !known || math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if _, known := spread([]float64{3}); known {
		t.Error("one run has a known spread")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "query_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "query_per_s", better: "higher", bound: 0.10}
	for _, c := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{10, 10}, []float64{10.9, 10.9}, "within"},
		{lower, []float64{10, 10}, []float64{11.1, 11.1}, "worse"},
		{lower, []float64{10, 10}, []float64{5, 5}, "within"},
		{higher, []float64{100, 100}, []float64{89, 89}, "worse"},
		{higher, []float64{100, 100}, []float64{130, 130}, "within"},
		{lower, []float64{10, 10.1, 9.9, 10}, []float64{12, 12.1, 11.9, 12}, "worse"},
		{lower, []float64{8, 12, 9, 13}, []float64{12, 12.1, 11.9, 12}, "unresolved"},
		// One run a side has no spread to judge by.
		{lower, []float64{10}, []float64{20}, "unresolved"},
		{lower, []float64{10, 10}, []float64{20}, "unresolved"},
	} {
		if _, got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.def.name, c.a, c.b, got, c.want)
		}
	}
}

// TestCompareFiles drives compare through -out files: it counts the
// pairings that are worse, and refuses to pool windows of two lengths.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seconds float64, p50 ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range p50 {
			r := &result{Workload: "order_st", Seconds: seconds, Metrics: metricSet{}}
			r.Metrics.fill(endToEnd, map[string]float64{"query_p50_ms": v, "query_per_s": 100})
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", 10, 1.0, 1.01, 0.99)
	var out strings.Builder
	if worse, err := compare(&out, base, write("slow.jsonl", 10, 1.5, 1.51, 1.49)); err != nil || worse != 1 {
		t.Errorf("compare = %d worse, %v; want 1 (query_p50_ms)\n%s", worse, err, out.String())
	}
	out.Reset()
	if worse, err := compare(&out, base, write("one.jsonl", 10, 1.5)); err != nil || worse != 0 ||
		!strings.Contains(out.String(), "unknown") || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("one run a side: %d worse, %v\n%s", worse, err, out.String())
	}
	if _, err := compare(&out, base, write("short.jsonl", 5, 1.0, 1.0)); err == nil {
		t.Error("5 s runs were compared with 10 s runs")
	}
	if _, err := compare(&out, base, write("a.jsonl", 5, 1.0)); err == nil {
		t.Error("a file mixing 10 s and 5 s runs was read")
	}
}

// TestCatalogueMatchesBenchmarkJSON holds BENCHMARK.json and the
// catalogue in metrics.go together, and both to the contract's limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(doc.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", n, len(workloads))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, catalogue %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", n, len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range doc.EndToEnd {
		checkName(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, catalogue %+v", i, m, d)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad unit, direction or bound", m.Name)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Error("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must exist and carry the largest bound (%g < %g)", setupBound, maxBound)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", n, len(perLayer))
	}
	for i, m := range doc.PerLayer {
		checkName(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, catalogue %+v", i, m, d)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: bad unit or direction", m.Name)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d or paths %v out of contract", doc.RunSeconds, doc.Paths)
	}
	for _, arg := range doc.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") || len(arg) > 200 {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
}

// TestInputsAreFrozen pins the statement streams: same seed, same
// stream; another seed, another stream; and seed 1's streams are the
// ones this file was written against, so an edit to the generators (or
// to anything they lean on) cannot move the benchmark unnoticed.
func TestInputsAreFrozen(t *testing.T) {
	golden := map[string]string{
		"order_st":   "8e2b40410c7067c9",
		"order_agg":  "9fa2220b5743dd81",
		"order_knn":  "8aa432fc2f0f910f",
		"traj_range": "b609a5ebe7763799",
	}
	for _, kind := range []string{"order_st", "order_agg", "order_knn", "traj_range"} {
		gen := func(seed int64) *dataset {
			if kind == "traj_range" {
				return genTrajs(seed, 40)
			}
			return genOrders(seed, 2000)
		}
		a, b, c := gen(1).streamHash(kind, 4096), gen(1).streamHash(kind, 4096), gen(2).streamHash(kind, 4096)
		if a != b {
			t.Errorf("%s: seed 1 gave %s then %s", kind, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream %s", kind, a)
		}
		if a != golden[kind] {
			t.Errorf("%s: seed 1 stream hash is %s, frozen value %s", kind, a, golden[kind])
		}
	}
}

func TestOracleCatchesWrongAnswers(t *testing.T) {
	d := genOrders(7, 3000)
	w := workloadByName("order_st")
	p := d.paramAt(w.stmt, 3)
	var rows [][]any
	for _, o := range d.orders {
		if o.matches(p) {
			rows = append(rows, []any{float64(o.fid), float64(o.t), map[string]any{"wkt": "POINT"}})
		}
	}
	if len(rows) == 0 {
		t.Fatal("parameter set 3 matches nothing; pick another")
	}
	if err := d.verify(w, p, rows); err != nil {
		t.Fatalf("the exact answer was rejected: %v", err)
	}
	if err := d.verify(w, p, rows[1:]); err == nil {
		t.Error("a missing row went unnoticed")
	}
	var outside order
	for _, o := range d.orders {
		if !o.matches(p) {
			outside = o
			break
		}
	}
	extra := append(rows[:len(rows):len(rows)], []any{float64(outside.fid), float64(outside.t), nil})
	if err := d.verify(w, p, extra); err == nil {
		t.Error("a row outside the window went unnoticed")
	}

	knn := workloadByName("order_knn")
	kp := d.paramAt(knn.stmt, 0)
	far := make([][]any, knnK)
	for i := range far {
		far[i] = []any{float64(i), 0.0, nil} // the first 50 fids, not the nearest 50
	}
	if err := d.verify(knn, kp, far); err == nil {
		t.Error("50 arbitrary rows passed as the 50 nearest")
	}
}

// TestSmoke runs every workload at 1/50 scale: the traced run of all
// six (window, oracle, replay, kernels), and the end-to-end run of one
// read-only and the read-write workload (repeated set-ups, the reopen
// count). It keeps the benchmark compiling and its oracle honest.
func TestSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	out := t.TempDir()
	cfg := runConfig{seed: 42, seconds: 0.6, scale: 0.02, outDir: out}
	check := func(r *result, err error, defs []metricDef) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 || r.Samples["verified"] < 1 {
			t.Fatalf("%s: correct=%v failed=%d attempted=%d verified=%d notes=%v",
				r.Workload, r.Correct, r.Failed, r.Attempted, r.Samples["verified"], r.Notes)
		}
		if len(r.Metrics) != len(defs) {
			t.Fatalf("%s: %d metrics reported, catalogue has %d", r.Workload, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := r.Metrics[d.name]
			if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s missing or malformed: %+v", r.Workload, d.name, m)
			}
		}
	}
	for _, w := range workloads {
		cfg.workload, cfg.trace = w.name, true
		r, err := run(cfg)
		check(r, err, perLayer)
		if got := r.Metrics["rpc.bytes_in_per_op"].Value; (got > 0) != w.tcp {
			t.Errorf("%s: rpc.bytes_in_per_op = %g", w.name, got)
		}
		if r.Metrics["server.request_us"].Value <= 0 || r.Metrics["kv.scan_tasks_per_op"].Value <= 0 {
			t.Errorf("%s: the traced run measured nothing", w.name)
		}

		// The trace file, read as raw spans: every replayed read has one
		// span of positive length per layer of its tree, filed under the
		// parent the call path gives it, and the reported self times are
		// the plain differences of those durations — nothing clipped.
		raw, err := os.ReadFile(filepath.Join(out, "trace_"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(raw, &spans); err != nil {
			t.Fatal(err)
		}
		ops := map[int]map[string]int64{}
		for _, s := range spans {
			if s.End <= s.Start || s.Parent != spanParent[s.Name] {
				t.Errorf("%s op %d: span %+v is empty or misfiled", w.name, s.OpID, s)
			}
			if ops[s.OpID] == nil {
				ops[s.OpID] = map[string]int64{}
			}
			if _, twice := ops[s.OpID][s.Name]; twice {
				t.Errorf("%s op %d: two %s spans", w.name, s.OpID, s.Name)
			}
			ops[s.OpID][s.Name] = s.dur()
		}
		layers := []string{"server.request", "sql.execute", "sql.parse", "sql.plan", "core.op", "table.scan", "index.plan", "kv.scan"}
		if w.stmt == "order_agg" {
			layers = append(layers, "exec.agg")
		}
		self := map[string][]float64{}
		var unresolved float64
		reads := 0
		for id, d := range ops {
			if _, read := d["server.request"]; !read {
				continue // a ping or a write batch
			}
			reads++
			if len(d) != len(layers) {
				t.Errorf("%s op %d: %d spans, want one per layer %v", w.name, id, len(d), layers)
			}
			diffs := map[string]int64{
				"server": d["server.request"] - d["sql.execute"],
				"sql":    d["sql.execute"] - d["sql.parse"] - d["sql.plan"] - d["core.op"] - d["exec.agg"],
				"core":   d["core.op"] - d["table.scan"],
				"table":  d["table.scan"] - d["index.plan"] - d["kv.scan"],
			}
			for layer, ns := range diffs {
				self[layer] = append(self[layer], float64(ns)/1e3)
				if ns < 0 {
					unresolved++
				}
			}
		}
		if reads != r.Samples["replayed"] || reads < minReplayOps {
			t.Fatalf("%s: %d read operations in the trace, %d reported", w.name, reads, r.Samples["replayed"])
		}
		for layer, v := range self {
			if got, want := r.Metrics[layer+".self_us"].Value, median(v); math.Abs(got-want) > 1e-6 {
				t.Errorf("%s: %s.self_us = %g, the raw spans give %g", w.name, layer, got, want)
			}
		}
		if got, want := r.Metrics["trace.unresolved_frac"].Value, unresolved/float64(4*reads); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: trace.unresolved_frac = %g, the raw spans give %g", w.name, got, want)
		}
	}
	for _, name := range []string{"order_st", "order_rw"} {
		cfg.workload, cfg.trace = name, false
		r, err := run(cfg)
		check(r, err, endToEnd)
		for _, d := range endToEnd {
			if r.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s = %g; end-to-end metrics are never 0", name, d.name, r.Metrics[d.name].Value)
			}
		}
	}
}
