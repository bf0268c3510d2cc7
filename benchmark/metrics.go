package main

// The catalogue: workloads and metrics by name. BENCHMARK.json lists
// the same names in the same order; a test holds the two together.

import (
	"math"
	"sort"
)

// workloadDef is one traffic mix.
type workloadDef struct {
	name, why string
	stmt      string // statement kind of the read stream
	traj      bool   // runs on the Traj table, not Order
	tcp       bool   // router over region servers on TCP sockets
	writes    bool   // client 0 inserts while client 1 reads
}

var workloads = []workloadDef{
	{name: "order_st", stmt: "order_st",
		why: "small selective ST range (3x3 km, 1 day): per-statement fixed cost dominates - parse/plan, range decomposition, task fan-out, JSON; block IO is minor"},
	{name: "order_agg", stmt: "order_agg",
		why: "10x10 km, 7 day GROUP BY district: thousands of rows scanned, few returned - block read/decompress, row decode and aggregation dominate; server does little"},
	{name: "order_knn", stmt: "order_knn",
		why: "st_KNN(point, 50): Algorithm 1's repeated small range scans through core.KNN and the row-adapter scan path"},
	{name: "traj_range", stmt: "traj_range", traj: true,
		why: "few fat rows from a table that fits the block cache: XZ2T range fan-out, gps_list lz4 + st_series decode and JSON row encoding; block IO is bypassed"},
	{name: "order_rw", stmt: "order_st", writes: true,
		why: "one client INSERTs 500-row batches while the other reads: WAL, group commit, flush, compaction and stalls run beside reads, so a read gain bought with write cost shows"},
	{name: "order_st_tcp", stmt: "order_st", tcp: true,
		why: "the order_st statement stream against a router over 3 region servers on loopback TCP: prices rpc and routing, and shows zone pruning lost over the wire"},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one metric. bound applies to end-to-end metrics only:
// the share of the parent's median by which it may worsen.
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"query_per_s", "1/s", "higher", 0.25},
	{"ingest_rows_per_s", "rows/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"disk_bytes_per_row", "B/row", "lower", 0.02},
	{"write_amp", "ratio", "lower", 0.25},
	{"alloc_kb_per_op", "KiB/op", "lower", 0.15},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

var perLayer = []metricDef{
	// Counts over the timed window.
	{name: "kv.scan_tasks_per_op", unit: "count/op", better: "lower"},
	{name: "kv.pairs_scanned_per_op", unit: "count/op", better: "lower"},
	{name: "kv.blocks_read_per_op", unit: "count/op", better: "lower"},
	{name: "kv.blocks_skipped_per_op", unit: "count/op", better: "higher"},
	{name: "kv.bytes_read_per_op", unit: "B/op", better: "lower"},
	{name: "kv.block_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "kv.bytes_written_per_row", unit: "B/row", better: "lower"},
	{name: "kv.wal_syncs_per_batch", unit: "count", better: "lower"},
	{name: "kv.group_commit_records_per_commit", unit: "count", better: "higher"},
	{name: "kv.flushes", unit: "count", better: "lower"},
	{name: "kv.compactions", unit: "count", better: "lower"},
	{name: "kv.write_stall_ms", unit: "ms", better: "lower"},
	{name: "kv.regions", unit: "count", better: "lower"},
	{name: "compress.lz4_decode_calls_per_op", unit: "count/op", better: "lower"},
	{name: "compress.lz4_decode_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "rpc.bytes_in_per_op", unit: "B/op", better: "lower"},
	{name: "rpc.bytes_out_per_op", unit: "B/op", better: "lower"},
	{name: "rpc.retries", unit: "count", better: "lower"},
	{name: "rpc.stale_refreshes", unit: "count", better: "lower"},
	{name: "rpc.conns", unit: "count", better: "lower"},
	{name: "jobs.failed", unit: "count", better: "lower"},
	{name: "server.resp_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "server.pages_per_op", unit: "count/op", better: "lower"},
	{name: "server.query_p99_ms", unit: "ms", better: "lower"},
	{name: "server.ingest_p95_ms", unit: "ms", better: "lower"},
	{name: "sql.examined_per_returned", unit: "ratio", better: "lower"},
	{name: "table.keep_ratio", unit: "ratio", better: "higher"},
	// Spans of the layered replay, median over its operations.
	{name: "server.request_us", unit: "us", better: "lower"},
	{name: "sql.parse_us", unit: "us", better: "lower"},
	{name: "sql.plan_us", unit: "us", better: "lower"},
	{name: "sql.execute_us", unit: "us", better: "lower"},
	{name: "core.op_us", unit: "us", better: "lower"},
	{name: "index.plan_us", unit: "us", better: "lower"},
	{name: "index.ranges_per_op", unit: "count/op", better: "lower"},
	{name: "table.scan_us", unit: "us", better: "lower"},
	{name: "kv.scan_us", unit: "us", better: "lower"},
	{name: "exec.agg_us", unit: "us", better: "lower"},
	{name: "rpc.roundtrip_us", unit: "us", better: "lower"},
	{name: "server.self_us", unit: "us", better: "lower"},
	{name: "sql.self_us", unit: "us", better: "lower"},
	{name: "core.self_us", unit: "us", better: "lower"},
	{name: "table.self_us", unit: "us", better: "lower"},
	{name: "trace.unresolved_frac", unit: "ratio", better: "lower"},
	{name: "server.insert_us_per_row", unit: "us/row", better: "lower"},
	{name: "sql.insert_us_per_row", unit: "us/row", better: "lower"},
	{name: "core.insert_us_per_row", unit: "us/row", better: "lower"},
	{name: "table.insert_us_per_row", unit: "us/row", better: "lower"},
	{name: "kv.apply_us_per_row", unit: "us/row", better: "lower"},
	// Kernels on captured workload bytes, and set-up's background work.
	{name: "table.encode_ns_per_row", unit: "ns/row", better: "lower"},
	{name: "table.decode_ns_per_row", unit: "ns/row", better: "lower"},
	{name: "index.key_ns_per_row", unit: "ns/row", better: "lower"},
	{name: "compress.lz4_compress_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "compress.lz4_decompress_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "kv.flush_s", unit: "s", better: "lower"},
	{name: "kv.compact_s", unit: "s", better: "lower"},
	// The host, not a layer: the pilot's level over the window. Per-layer
	// timings are raw; read them against this (pilotRefUS when quiet).
	{name: "host.pilot_us", unit: "us", better: "lower"},
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a catalogue.
type metricSet map[string]metric

// fill sets every metric of the catalogue in m: a value never measured
// (not applicable on this workload) or not finite reads 0.
func (m metricSet) fill(defs []metricDef, get map[string]float64) {
	for _, d := range defs {
		v := get[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[d.name] = metric{Value: v, Unit: d.unit}
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
