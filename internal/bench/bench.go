// Package bench reproduces every table and figure of the paper's
// evaluation (Section VIII) at laptop scale. Each experiment writes its
// cells as JSON lines: the same rows and series the paper reports, each
// with its measured time, its time on the modeled clock and the counts
// behind both. Absolute numbers differ (one process, not a 5-node Hadoop
// cluster), but the shapes (who wins, by what factor, where systems
// fail) are the reproduction target; EXPERIMENTS.md records
// paper-vs-measured for each.
package bench

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"just/internal/baseline"
	"just/internal/core"
	"just/internal/geom"
	"just/internal/table"
	"just/internal/workload"
)

// Scale selects dataset sizes.
type Scale string

// Supported scales.
const (
	// ScaleSmall finishes the full suite in a couple of minutes (used by
	// `go test -bench`).
	ScaleSmall Scale = "small"
	// ScaleMedium is the default for `just-bench`.
	ScaleMedium Scale = "medium"
)

// Options configure a benchmark run.
type Options struct {
	// Dir is the scratch directory (one subdirectory per system build).
	Dir string
	// Out receives the cells, one JSON object per line (default
	// os.Stdout).
	Out io.Writer
	// Scale selects dataset sizes (default ScaleMedium).
	Scale Scale
	// Queries is the number of randomized queries per data point; the
	// paper uses 100 and takes the median (default 10 here).
	Queries int
	// Seed for all generators.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Out == nil {
		o.Out = os.Stdout
	}
	if o.Scale == "" {
		o.Scale = ScaleMedium
	}
	if o.Queries <= 0 {
		o.Queries = 10
	}
	if o.Seed == 0 {
		o.Seed = 2019
	}
	return o
}

// sizes returns dataset sizes for the scale.
type sizes struct {
	orderN        int
	trajN         int
	trajPoints    int
	syntheticMult int
}

func (o Options) sizes() sizes {
	switch o.Scale {
	case ScaleSmall:
		return sizes{orderN: 20000, trajN: 300, trajPoints: 300, syntheticMult: 3}
	default:
		return sizes{orderN: 120000, trajN: 1500, trajPoints: 400, syntheticMult: 4}
	}
}

// Runner executes experiments.
type Runner struct {
	opts Options
	sz   sizes
	enc  *json.Encoder
	exp  string // the experiment running, stamped on every cell
	werr error  // the first failed write of a cell

	// lazily generated datasets
	orders []workload.Order
	trajs  []*table.Trajectory
}

// NewRunner creates a runner.
func NewRunner(opts Options) *Runner {
	opts = opts.withDefaults()
	return &Runner{opts: opts, sz: opts.sizes(), enc: json.NewEncoder(opts.Out)}
}

// Experiments lists every runnable experiment id in report order.
func Experiments() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

var registry = map[string]func(*Runner) error{
	"table2":  (*Runner).RunTable2,
	"codecs":  (*Runner).RunCodecs,
	"cluster": (*Runner).RunCluster,
	"fig10a":  (*Runner).RunFig10a,
	"fig10b":  (*Runner).RunFig10b,
	"fig10c":  (*Runner).RunFig10c,
	"fig10d":  (*Runner).RunFig10d,
	"fig11a":  (*Runner).RunFig11a,
	"fig11b":  (*Runner).RunFig11b,
	"fig11c":  (*Runner).RunFig11c,
	"fig11d":  (*Runner).RunFig11d,
	"fig12a":  (*Runner).RunFig12a,
	"fig12b":  (*Runner).RunFig12b,
	"fig12c":  (*Runner).RunFig12c,
	"fig12d":  (*Runner).RunFig12d,
	"fig13a":  (*Runner).RunFig13a,
	"fig13b":  (*Runner).RunFig13b,
	"fig13c":  (*Runner).RunFig13c,
	"fig13d":  (*Runner).RunFig13d,
	"fig14a":  (*Runner).RunFig14a,
	"fig14b":  (*Runner).RunFig14b,
}

// Run executes one experiment by id.
func (r *Runner) Run(id string) error {
	fn, ok := registry[id]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (have %v)", id, Experiments())
	}
	r.exp = id
	if err := fn(r); err != nil {
		return err
	}
	return r.werr
}

// RunAll executes every experiment in order.
func (r *Runner) RunAll() error {
	for _, id := range Experiments() {
		if err := r.Run(id); err != nil {
			return fmt.Errorf("bench: %s: %w", id, err)
		}
	}
	return nil
}

// Orders returns the (cached) Order dataset.
func (r *Runner) Orders() []workload.Order {
	if r.orders == nil {
		r.orders = workload.Orders(workload.OrderConfig{
			N: r.sz.orderN, Seed: r.opts.Seed, Days: 60,
		})
	}
	return r.orders
}

// Trajs returns the (cached) Traj dataset.
func (r *Runner) Trajs() []*table.Trajectory {
	if r.trajs == nil {
		r.trajs = workload.Trajectories(workload.TrajConfig{
			N: r.sz.trajN, PointsPerTraj: r.sz.trajPoints,
			Days: 30, Seed: r.opts.Seed + 1,
		})
	}
	return r.trajs
}

// synthetic returns the Synthetic dataset: jittered copies of Traj
// spread over ~10x its time span.
func (r *Runner) synthetic() []*table.Trajectory {
	return workload.Synthetic(r.Trajs(), r.sz.syntheticMult, r.opts.Seed+2)
}

// dataPercents is the paper's "Data Size (%)" axis.
var dataPercents = []int{20, 40, 60, 80, 100}

// fraction returns the first pct% of a slice.
func fraction[T any](xs []T, pct int) []T {
	n := len(xs) * pct / 100
	if n < 1 {
		n = 1
	}
	return xs[:n]
}

// scratch returns a fresh subdirectory for a system build.
func (r *Runner) scratch(name string) (string, error) {
	dir := filepath.Join(r.opts.Dir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// The modeled clock. The paper ran on a 5-node HBase/HDFS cluster where
// every byte read comes off an HDD through HDFS replication and RPC, a
// Spark system dispatches a job per query and a MapReduce query
// launches a job that takes ~10 s. In one process on a page cache none
// of that costs anything, so a cell's modeled time adds it to the
// measured wall time as arithmetic on what the query counted:
//
//	modeled = measured + bytes read / diskMBps + jobs × launch cost
//
// Bytes are charged serially, for JUST's SSTable blocks as for the
// Hadoop comparators' partition files. No system sleeps, and nothing
// outside this package knows the prices.
const diskMBps = 40

// launchCost is the price of one of sys's jobs: a Spark dispatch for the
// in-memory comparators and a MapReduce launch for the Hadoop ones,
// scaled down from ~100 ms and ~10 s with the datasets.
func (r *Runner) launchCost(sys baseline.System) time.Duration {
	small := r.opts.Scale == ScaleSmall
	switch sys.(type) {
	case *baseline.DiskGrid, *baseline.DiskGridST:
		if small {
			return 10 * time.Millisecond
		}
		return 50 * time.Millisecond
	}
	if small {
		return 200 * time.Microsecond
	}
	return 500 * time.Microsecond
}

// counts is what one query (or one ingest) did: the hits it returned
// and the work the system's own counters saw.
type counts struct {
	Hits          int64 `json:"hits"`
	ScanTasks     int64 `json:"scan_tasks"`
	PairsScanned  int64 `json:"pairs_scanned"`
	BlocksRead    int64 `json:"blocks_read"`
	BlockMisses   int64 `json:"block_misses"`
	BlocksSkipped int64 `json:"blocks_skipped"`
	BytesRead     int64 `json:"bytes_read"`
	Jobs          int64 `json:"jobs"`
}

func (c *counts) fields() [8]*int64 {
	return [8]*int64{&c.Hits, &c.ScanTasks, &c.PairsScanned, &c.BlocksRead,
		&c.BlockMisses, &c.BlocksSkipped, &c.BytesRead, &c.Jobs}
}

func (c counts) minus(b counts) counts {
	f, g := c.fields(), b.fields()
	for j := range f {
		*f[j] -= *g[j]
	}
	return c
}

// cost prices the counted work on the modeled clock.
func (c counts) cost(launch time.Duration) time.Duration {
	return time.Duration(c.BytesRead)*time.Second/(diskMBps<<20) + time.Duration(c.Jobs)*launch
}

// meter reads a system's cumulative counters and prices its jobs.
type meter struct {
	read   func() counts
	launch time.Duration
}

func justMeter(e *core.Engine) meter {
	return meter{read: func() counts {
		m := e.Store().Metrics()
		return counts{ScanTasks: m.ScanTasks, PairsScanned: m.ScanPairs, BlocksRead: m.BlocksRead,
			BlockMisses: m.BlockCacheMisses, BlocksSkipped: m.BlocksSkipped, BytesRead: m.BytesRead}
	}}
}

func (r *Runner) systemMeter(sys baseline.System) meter {
	return meter{read: func() counts {
		jobs, bytes := sys.Counters()
		return counts{Jobs: jobs, BytesRead: bytes}
	}, launch: r.launchCost(sys)}
}

// cell is one value of a figure, written as one JSON line: a time on the
// measured and the modeled clock with the per-query median counts behind
// it, a plain value (a size or a statistic), or the failure that stopped
// the system.
type cell struct {
	Exp        string   `json:"exp"`
	Row        string   `json:"row"`
	System     string   `json:"system"`
	Series     string   `json:"series"`
	MeasuredMS float64  `json:"measured_ms,omitempty"`
	ModeledMS  float64  `json:"modeled_ms,omitempty"`
	Value      *float64 `json:"value,omitempty"`
	Fail       string   `json:"fail,omitempty"` // "OOM" or "n/a"
	Counts     *counts  `json:"counts,omitempty"`
}

func (r *Runner) put(row, system, series string, c cell) {
	c.Exp, c.Row, c.System, c.Series = r.exp, row, system, series
	if err := r.enc.Encode(c); err != nil && r.werr == nil {
		r.werr = err
	}
}

func (r *Runner) value(row, system, series string, v float64) {
	v = math.Round(v*1000) / 1000
	r.put(row, system, series, cell{Value: &v})
}

// measure runs fn once per parameter set, as the paper does to dodge the
// HBase block cache ("randomly select 100 different query parameters,
// perform each query only once, and take the median"), and emits the
// medians of the measured time, the modeled time and each count. fn
// returns its hits. A query that fails with ErrOutOfMemory or
// ErrUnsupported gives a failure cell; any other error ends the
// experiment.
func (r *Runner) measure(row, system, series string, m meter, n int, fn func(i int) (int, error)) error {
	walls := make([]time.Duration, n)
	modeled := make([]time.Duration, n)
	per := make([]counts, n)
	for i := range per {
		before := m.read()
		start := time.Now()
		hits, err := fn(i)
		walls[i] = time.Since(start)
		if err != nil {
			return r.fail(row, system, series, err)
		}
		per[i] = m.read().minus(before)
		per[i].Hits = int64(hits)
		modeled[i] = walls[i] + per[i].cost(m.launch)
	}
	var med counts
	vals := make([]int64, n)
	for j, f := range med.fields() {
		for i := range per {
			vals[i] = *per[i].fields()[j]
		}
		*f = median(vals)
	}
	r.put(row, system, series, cell{MeasuredMS: ms(median(walls)), ModeledMS: ms(median(modeled)), Counts: &med})
	return nil
}

// fail emits the failure that stopped a system: OOM for a memory budget
// exceeded, n/a for a query type it lacks (Table VI).
func (r *Runner) fail(row, system, series string, err error) error {
	switch {
	case errors.Is(err, baseline.ErrOutOfMemory):
		r.put(row, system, series, cell{Fail: "OOM"})
	case errors.Is(err, baseline.ErrUnsupported):
		r.put(row, system, series, cell{Fail: "n/a"})
	default:
		return fmt.Errorf("%s at %s (%s): %w", system, row, series, err)
	}
	return nil
}

func median[T cmp.Ordered](xs []T) T {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// orderRecords converts orders into baseline records.
func orderRecords(orders []workload.Order) []baseline.Record {
	recs := make([]baseline.Record, len(orders))
	for i, o := range orders {
		recs[i] = baseline.Record{
			ID:           o.ID,
			Box:          o.Point.MBR(),
			Start:        o.TMS,
			End:          o.TMS,
			PayloadBytes: 16,
		}
	}
	return recs
}

// trajRecords converts trajectories into baseline records. In-memory
// Spark systems replicate extended objects across overlapping
// partitions; the ×8 payload factor models that replication, which is
// what drives their OOM failures on Traj in the paper.
const trajReplication = 8

func trajRecords(trajs []*table.Trajectory) []baseline.Record {
	recs := make([]baseline.Record, len(trajs))
	for i, tr := range trajs {
		recs[i] = baseline.Record{
			ID:           int64(i),
			Box:          tr.MBR(),
			Start:        tr.Points[0].T,
			End:          tr.Points[len(tr.Points)-1].T,
			PayloadBytes: len(tr.Points) * 24 * trajReplication,
		}
	}
	return recs
}

// byStart sorts recs by start time, as ST-Hadoop's future-only rule
// requires of an ingest.
func byStart(recs []baseline.Record) []baseline.Record {
	slices.SortStableFunc(recs, func(a, b baseline.Record) int { return cmp.Compare(a.Start, b.Start) })
	return recs
}

func totalBytes(recs []baseline.Record) int64 {
	var total int64
	for _, r := range recs {
		total += 64 + int64(r.PayloadBytes)
	}
	return total
}

// budgets models the paper's cluster memory relative to the full Traj
// dataset: Simba dies at 40% Traj, LocationSpark at 20%, SpatialSpark at
// 100% (Section VIII-B/C).
type budgets struct {
	simba, locationSpark, spatialSpark int64
}

func (r *Runner) clusterBudgets() budgets {
	full := totalBytes(trajRecords(r.Trajs()))
	return budgets{
		simba:         full * 30 / 100,
		locationSpark: full * 15 / 100,
		spatialSpark:  full * 90 / 100,
	}
}

// region of the generated datasets, used for query workloads.
func (r *Runner) queryConfig() workload.QueryConfig {
	return workload.QueryConfig{Seed: r.opts.Seed + 7, Region: workload.Region, Days: 30}
}

// windows returns square query windows with the given side (km), salted
// so each figure row queries distinct locations (the paper's methodology
// of distinct parameters per measurement, which defeats cache carry-over
// between rows). The paper's default window is 3x3 km.
func (r *Runner) windows(salt int64, sideKM float64) []geom.MBR {
	cfg := r.queryConfig()
	cfg.Seed += 7919 * (salt + int64(sideKM*100))
	return workload.SpatialWindows(cfg, r.opts.Queries, sideKM)
}

// knnPoints returns salted k-NN query points.
func (r *Runner) knnPoints(salt int64) []geom.Point {
	cfg := r.queryConfig()
	cfg.Seed += 104729 * salt
	return workload.KNNPoints(cfg, r.opts.Queries)
}

// timeWindows returns salted random time intervals of the given length.
func (r *Runner) timeWindows(salt, duration int64) [][2]int64 {
	cfg := r.queryConfig()
	cfg.Seed += 15485863 * salt
	return workload.TimeWindows(cfg, r.opts.Queries, duration)
}
