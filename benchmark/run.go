package main

// One run of one workload: generate → set up → warm up → timed window →
// verify → (traced run) → metrics.

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"just/internal/compress"
	"just/internal/kv"
	"just/internal/rpc"
	"just/internal/sql"
)

const (
	// Set-up is repeated and setup_s is the median, so one slow fsync
	// does not decide it: minSetups times, and on while the set-ups so
	// far took under setupBudget seconds together, up to maxSetups — the
	// Traj set-up takes 50 ms, and a median of three of those is noise.
	// The traced run reports no setup_s and sets up once.
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1.0
	// The traced run replays replayOps reads, fewer (never under
	// minReplayOps) when they do not fit in half the window's length.
	replayOps      = 200
	minReplayOps   = 20
	writeReplayOps = 20
	// Order rows carry ~50 bytes of user data (two 8-byte scalars, a
	// 16-byte point, a short string, a double); a GPS fix carries 24.
	orderUserBytes = 50
	fixUserBytes   = 24
	bulkBatchRows  = 4096 // core.BulkInsert's group-commit granularity
	// The untimed warm-up lasts this share of the timed window.
	warmupShare = 0.1
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string  // where the trace file goes
	scale    float64 // dataset size multiplier; 1 everywhere but in the tests
}

// result is what one run reports.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// Samples is the sample count behind each timing.
	Samples map[string]int `json:"samples"`
	// DatasetBytes vs CacheBytes: the working-set claim, as measured.
	DatasetBytes int64 `json:"dataset_bytes"`
	CacheBytes   int64 `json:"cache_bytes"`
	// HostSlowdown is how many times slower than its reference the pilot
	// ran during the window; Raw holds the wall-clock end-to-end metrics
	// as the clock gave them, before they were divided by it.
	HostSlowdown float64            `json:"host_slowdown"`
	Raw          map[string]float64 `json:"raw,omitempty"`
	Notes        []string           `json:"notes,omitempty"`
}

// snapshot is every public counter the benchmark differences.
type snapshot struct {
	kv         kv.Metrics
	lz4        compress.CodecStats
	rpc        rpc.Stats
	totalAlloc uint64
	respBytes  int64
	requests   int64
}

func (s *system) snapshot(before bool) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sn := snapshot{
		lz4:        compress.Stats()["lz4"],
		totalAlloc: ms.TotalAlloc,
		respBytes:  s.respBytes.Load(),
		requests:   s.requests.Load(),
	}
	// The router's Metrics() asks every peer over rpc; keep those bytes
	// outside the window on both edges.
	if before {
		sn.kv = s.eng.Store().Metrics()
	}
	if s.rpc != nil {
		sn.rpc = s.rpc.Stats()
	}
	if !before {
		sn.kv = s.eng.Store().Metrics()
	}
	return sn
}

// peakRSS reads VmHWM, the process's resident high-water mark, in MiB.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fs := strings.Fields(sc.Text()); len(fs) >= 2 && fs[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fs[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func run(cfg runConfig) (*result, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var d *dataset
	switch {
	case w.traj:
		d = genTrajs(cfg.seed, int(math.Max(20, fullTrajs*cfg.scale)))
	case w.writes:
		d = genOrders(cfg.seed, int(math.Max(1000, fullOrders/2*cfg.scale)))
	default:
		d = genOrders(cfg.seed, int(math.Max(1000, fullOrders*cfg.scale)))
	}
	root, err := os.MkdirTemp("", "just-benchmark-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var sys *system
	var sts []setup
	spent := 0.0
	another := func() bool {
		switch {
		case len(sts) == 0:
			return true
		case cfg.trace:
			return false
		case len(sts) < minSetups:
			return true
		default:
			return len(sts) < maxSetups && spent < setupBudget
		}
	}
	for another() {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(sys.dir)
		}
		var st setup
		if sys, st, err = setUp(root, w, d); err != nil {
			return nil, err
		}
		sts = append(sts, st)
		spent += st.seconds
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	last := sts[len(sts)-1]

	res := &result{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: metricSet{}, Samples: map[string]int{},
		DatasetBytes: last.diskBytes, CacheBytes: blockCacheBytes,
	}

	// Set-up's garbage (three copies of the boxed rows) is collected
	// before any statement runs, so every window starts from the same
	// heap.
	runtime.GC()
	warm, _ := drive(sys.url, w, d, warmParams, 0, time.Duration(warmupShare*cfg.seconds*float64(time.Second)))
	before := sys.snapshot(true)
	win, elapsed := drive(sys.url, w, d, 0, warm.batches, time.Duration(cfg.seconds*float64(time.Second)))
	after := sys.snapshot(false)

	res.Attempted = len(win.readMS) + len(win.writeMS) + len(warm.readMS) + len(warm.writeMS)
	res.Failed = win.failed + warm.failed
	firstErr := win.firstErr
	if firstErr == nil {
		firstErr = warm.firstErr
	}
	for _, s := range win.samples {
		if err := d.verify(w, d.paramAt(w.stmt, s.param), s.rows); err != nil {
			res.Failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("statement %d: wrong answer: %w", s.param, err)
			}
		}
	}
	res.Samples["query"] = len(win.readMS)
	res.Samples["ingest"] = len(win.writeMS)
	res.Samples["verified"] = len(win.samples)
	res.Samples["pilot"] = len(win.pilotUS)
	res.HostSlowdown = slowdown(win.pilotUS)
	if !supported(len(win.readMS), 0.95) {
		res.Notes = append(res.Notes, fmt.Sprintf("query_p95_ms rests on %d samples, fewer than ten beyond it", len(win.readMS)))
	}

	acked := warm.rowsInserted + win.rowsInserted
	var layer map[string]float64
	if cfg.trace {
		tr, err := replay(sys, w, d, len(win.readMS), warm.batches+win.batches, time.Duration(cfg.seconds/2*float64(time.Second)))
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		acked += tr.rowsInserted
		res.Samples["replayed"] = tr.ops
		if err := tr.write(cfg.outDir, w.name); err != nil {
			return nil, err
		}
		layer = tr.metrics
		if len(tr.unresolved) > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("unresolved (children timed longer than the layer): %s", strings.Join(tr.unresolved, ", ")))
		}
		if err := kernels(sys, w, d, layer); err != nil {
			return nil, fmt.Errorf("kernels: %w", err)
		}
	}

	// At-rest footprint, and on order_rw the durability check: close,
	// reopen, and count what is there.
	liveRows := float64(last.rows) + float64(acked)
	disk := float64(last.diskBytes)
	if w.writes {
		if err := sys.eng.Flush(); err != nil {
			return nil, err
		}
		if err := sys.eng.Store().Compact(); err != nil {
			return nil, err
		}
		disk = float64(sys.eng.DiskSize())
		dir := sys.dir
		err := sys.close()
		sys = nil
		if err != nil {
			return nil, err
		}
		if sys, err = openSystem(dir, w.tcp); err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		got, err := countRows(sys)
		if err != nil {
			return nil, fmt.Errorf("count after reopen: %w", err)
		}
		res.Attempted++
		if got != int64(liveRows) {
			res.Failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("after reopen count(*) = %d, want %d preloaded + %d acknowledged", got, last.rows, acked)
			}
		}
	}
	if firstErr != nil {
		res.Notes = append(res.Notes, "first failure: "+firstErr.Error())
	}
	res.Correct = res.Failed == 0

	// The write phase behind ingest_rows_per_s, write_amp and the kv
	// write counters is the timed window on order_rw and the set-up's
	// bulk load everywhere else.
	delta := subMetrics(after.kv, before.kv)
	write := writePhase{kv: last.kvAtEnd, rows: float64(last.rows), batches: math.Ceil(float64(last.rows) / bulkBatchRows)}
	if w.writes {
		write = writePhase{kv: delta, rows: float64(win.rowsInserted), batches: float64(win.batches)}
	}
	reads := float64(len(win.readMS))
	stmts := reads + float64(len(win.writeMS))
	if !cfg.trace {
		userBytes := float64(orderUserBytes)
		if w.traj {
			fixes := 0
			for _, t := range d.trajs {
				fixes += len(t.points)
			}
			userBytes = fixUserBytes * float64(fixes) / float64(len(d.trajs))
		}
		// Wall-clock metrics are reported as at the pilot's reference
		// host speed: each time divided, each rate multiplied, by the
		// slowdown the pilot saw while it was measured — the window's for
		// the statements, each set-up's own for that set-up. raw keeps
		// what the clock said.
		var setupS, loadRate, loadAmp, rawSetupS, rawLoadRate []float64
		for _, st := range sts {
			rawSetupS = append(rawSetupS, st.seconds)
			rawLoadRate = append(rawLoadRate, float64(st.rows)/st.loadSeconds)
			setupS = append(setupS, st.seconds/st.slowdown)
			loadRate = append(loadRate, float64(st.rows)/st.loadSeconds*st.slowdown)
			loadAmp = append(loadAmp, float64(st.kvAtEnd.BytesWritten)/(float64(st.rows)*userBytes))
		}
		res.Raw = map[string]float64{
			"query_p50_ms":      percentile(win.readMS, 0.50),
			"query_p95_ms":      percentile(win.readMS, 0.95),
			"query_per_s":       reads / elapsed.Seconds(),
			"ingest_rows_per_s": median(rawLoadRate),
			"setup_s":           median(rawSetupS),
		}
		if w.writes {
			res.Raw["ingest_rows_per_s"] = write.rows / elapsed.Seconds()
		}
		slow := res.HostSlowdown
		e2e := map[string]float64{
			"query_p50_ms":       res.Raw["query_p50_ms"] / slow,
			"query_p95_ms":       res.Raw["query_p95_ms"] / slow,
			"query_per_s":        res.Raw["query_per_s"] * slow,
			"ingest_rows_per_s":  median(loadRate),
			"setup_s":            median(setupS),
			"disk_bytes_per_row": disk / liveRows,
			"write_amp":          median(loadAmp),
			"alloc_kb_per_op":    float64(after.totalAlloc-before.totalAlloc) / 1024 / stmts,
			"peak_rss_mb":        peakRSS(),
		}
		if w.writes {
			e2e["ingest_rows_per_s"] = res.Raw["ingest_rows_per_s"] * slow
			e2e["write_amp"] = float64(write.kv.BytesWritten) / (write.rows * userBytes)
		}
		res.Metrics.fill(endToEnd, e2e)
		return res, nil
	}

	for k, v := range map[string]float64{
		"kv.scan_tasks_per_op":               float64(delta.ScanTasks) / reads,
		"kv.pairs_scanned_per_op":            float64(delta.ScanPairs) / reads,
		"kv.blocks_read_per_op":              float64(delta.BlocksRead) / reads,
		"kv.blocks_skipped_per_op":           float64(delta.BlocksSkipped) / reads,
		"kv.bytes_read_per_op":               float64(delta.BytesRead) / reads,
		"kv.block_cache_hit_ratio":           ratio(float64(delta.BlockCacheHits), float64(delta.BlockCacheHits+delta.BlockCacheMisses)),
		"kv.bytes_written_per_row":           ratio(float64(write.kv.BytesWritten), write.rows),
		"kv.wal_syncs_per_batch":             ratio(float64(write.kv.WALSyncs), write.batches),
		"kv.group_commit_records_per_commit": ratio(float64(write.kv.GroupCommitRecords), float64(write.kv.GroupCommits)),
		"kv.flushes":                         float64(write.kv.Flushes),
		"kv.compactions":                     float64(write.kv.Compactions),
		"kv.write_stall_ms":                  float64(write.kv.WriteStallNanos) / 1e6,
		"kv.regions":                         float64(sys.eng.Store().Regions()),
		"compress.lz4_decode_calls_per_op":   float64(after.lz4.DecompressOps-before.lz4.DecompressOps) / reads,
		"compress.lz4_decode_bytes_per_op":   float64(after.lz4.DecompressBytesOut-before.lz4.DecompressBytesOut) / reads,
		"rpc.bytes_in_per_op":                float64(after.rpc.BytesIn-before.rpc.BytesIn) / stmts,
		"rpc.bytes_out_per_op":               float64(after.rpc.BytesOut-before.rpc.BytesOut) / stmts,
		"rpc.retries":                        float64(delta.RPCRetries),
		"rpc.stale_refreshes":                float64(delta.StaleMapRefreshes),
		"rpc.conns":                          float64(after.rpc.Conns),
		"jobs.failed":                        float64(sys.jobsFailed()),
		"server.resp_bytes_per_op":           float64(after.respBytes-before.respBytes) / stmts,
		"server.pages_per_op":                float64(after.requests-before.requests) / stmts,
		"server.query_p99_ms":                percentile(win.readMS, 0.99),
		"server.ingest_p95_ms":               percentile(win.writeMS, 0.95),
		"sql.examined_per_returned":          ratio(float64(delta.ScanPairs), float64(win.rowsReturned)),
		"kv.flush_s":                         last.flushSeconds,
		"kv.compact_s":                       last.compactSecs,
		"host.pilot_us":                      pilotLevel(win.pilotUS),
	} {
		layer[k] = v
	}
	res.Metrics.fill(perLayer, layer)
	return res, nil
}

// writePhase is the stretch of a run in which rows were written, and
// what the store's counters did over it.
type writePhase struct {
	kv            kv.Metrics
	rows, batches float64
}

// subMetrics returns a − b field by field (every kv.Metrics field is an
// int64 counter).
func subMetrics(a, b kv.Metrics) kv.Metrics {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(va.Field(i).Int() - vb.Field(i).Int())
	}
	return a
}

func countRows(s *system) (int64, error) {
	res, err := sql.NewSession(s.eng, user).Execute("SELECT count(*) AS n FROM " + orderTable)
	if err != nil {
		return 0, err
	}
	defer res.Frame.Release()
	rows := res.Frame.Collect()
	if len(rows) != 1 || len(rows[0]) != 1 {
		return 0, errors.New("count(*) returned no single value")
	}
	n, ok := rows[0][0].(int64)
	if !ok {
		return 0, fmt.Errorf("count(*) returned %T", rows[0][0])
	}
	return n, nil
}
