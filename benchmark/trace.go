package main

// The traced run. After the timed window, one client replays operations
// of the workload; each is issued once untimed (so every layer sees the
// same cache state), then spanRepeats times at every layer's public
// entry from kv up to the HTTP server, and the shortest of those calls
// is filed as the layer's span. Spans are therefore warm-cache costs of
// separate calls, not slices of one call: the tree that links them is
// the call path read from the code, and a self time is a plain
// difference of separately measured durations. Tracing inside the
// program is a later change.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"just/internal/compress"
	"just/internal/core"
	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/kv"
	"just/internal/sql"
	"just/internal/table"
	"just/pkg/client"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the traced run began; Parent names the span of the same
// operation that would have caused this call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent string `json:"parent"`
	OpID   int    `json:"op_id"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanParent is the read path, caller above callee.
var spanParent = map[string]string{
	"server.request": "",
	"sql.execute":    "server.request",
	"sql.parse":      "sql.execute",
	"sql.plan":       "sql.execute",
	"core.op":        "sql.execute",
	"exec.agg":       "sql.execute",
	"table.scan":     "core.op",
	"index.plan":     "table.scan",
	"kv.scan":        "table.scan",
}

// selfLayers are the spans that have children, hence a self time.
var selfLayers = []string{"server.request", "sql.execute", "core.op", "table.scan"}

// selfTimes returns, for the spans of one operation, each span's self
// time in nanoseconds: its duration minus the durations of its direct
// children. Nothing is clipped, so over a complete tree the self times
// sum to the root's duration, and a self time is negative exactly when
// the children, timed as calls of their own, came out longer than the
// call that contains them: the layer is thinner than the call-to-call
// noise, and that self time is unresolved.
func selfTimes(spans []span) map[string]int64 {
	self := make(map[string]int64, len(spans))
	for _, s := range spans {
		self[s.Name] += s.dur()
		if s.Parent != "" {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// traceResult is the outcome of the traced run.
type traceResult struct {
	ops          int // read operations replayed
	spans        []span
	metrics      map[string]float64
	unresolved   []string // self-time metrics whose median is negative
	rowsInserted int64
}

func (t *traceResult) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), data, 0o644)
}

// spanRepeats: a layer's span is the shortest of this many back-to-back
// calls. The shortest is the call the host disturbed least; differences
// of single calls are mostly that disturbance.
const spanRepeats = 3

// tracer times calls and files them as spans.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

// once times one call of fn and files it.
func (tr *tracer) once(name string, fn func() error) (int64, error) {
	start := time.Since(tr.t0).Nanoseconds()
	err := fn()
	end := time.Since(tr.t0).Nanoseconds()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	tr.spans = append(tr.spans, span{Name: name, Start: start, End: end, Parent: spanParent[name], OpID: tr.op})
	return end - start, nil
}

// shortest calls fn spanRepeats times and files the shortest call. fn
// must be repeatable: the reads are, the writes use once.
func (tr *tracer) shortest(name string, fn func() error) error {
	at := len(tr.spans)
	for i := 0; i < spanRepeats; i++ {
		if _, err := tr.once(name, fn); err != nil {
			return err
		}
	}
	best := tr.spans[at]
	for _, s := range tr.spans[at+1:] {
		if s.dur() < best.dur() {
			best = s
		}
	}
	tr.spans = append(tr.spans[:at], best)
	return nil
}

// knnCell is the first area Algorithm 1 scans for p: the world quad-
// split until no wider than its 0.01° threshold, following p.
func knnCell(p geom.Point) geom.MBR {
	a := geom.WorldMBR
	for a.Width() > 0.01 || a.Height() > 0.01 {
		for _, c := range a.QuadSplit() {
			if c.Contains(p) {
				a = c
				break
			}
		}
	}
	return a
}

// discardPairs is the scan-task collector that keeps nothing: with it
// kv.ScanCollect — the entry Table.ScanBatches scans through — costs
// what the kv layer alone costs on the same ranges.
func discardPairs() kv.TaskCollector[struct{}] {
	none := func() (struct{}, bool, error) { return struct{}{}, false, nil }
	return kv.TaskCollector[struct{}]{
		Add:    func(_, _ []byte) (struct{}, bool, error) { return none() },
		Finish: none,
	}
}

// replay runs the layered replay: reads starting at parameter set
// firstParam — replayOps of them, or as many (at least minReplayOps) as
// fit in budget on a workload whose statements are slow — and on
// order_rw also writeReplayOps write batches from firstBatch on, each
// layer getting a batch of its own.
func replay(s *system, w *workloadDef, d *dataset, firstParam, firstBatch int, budget time.Duration) (*traceResult, error) {
	ctx := context.Background()
	tblName := orderTable
	if w.traj {
		tblName = trajTable
	}
	tbl, err := s.eng.OpenTable(user, tblName)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	store := s.eng.Store()
	sess := sql.NewSession(s.eng, user)
	cl := client.Connect(s.url, user)

	// What the statement projects, as the planner pushes it down.
	var cols []string
	switch w.stmt {
	case "order_agg":
		cols = []string{"district", "amount"}
	case "traj_range":
	default:
		cols = []string{"fid", "time", "geom"}
	}
	var needed []bool
	if cols != nil {
		needed = make([]bool, schema.Len())
		for _, c := range cols {
			needed[schema.Index(c)] = true
		}
	}
	aggs := []exec.Agg{{Kind: exec.AggCount, Col: "*", Name: "n"}, {Kind: exec.AggSum, Col: "amount", Name: "total"}}

	tr := &tracer{t0: time.Now()}
	durs := map[string][]float64{} // µs per span name
	selfs := map[string][]float64{}
	var ranges, pairs, kept, unresolved float64

	ops := 0
	for ; ops < replayOps && (ops < minReplayOps || time.Since(tr.t0) < budget); ops++ {
		i := ops
		tr.op = i
		opStart := len(tr.spans)
		p := d.paramAt(w.stmt, firstParam+i)
		stmt := statement(w.stmt, p)
		q := index.Query{Window: p.win, HasTime: true, TMin: p.tmin, TMax: p.tmax}
		if w.stmt == "order_knn" {
			q = index.Query{Window: knnCell(p.pt)}
		}
		if _, _, err := query(cl, stmt, false); err != nil {
			return nil, err
		}

		// index, then kv on the ranges it planned (zone hints as
		// Table.ScanBatches sets them).
		var path table.AccessPath
		if err := tr.shortest("index.plan", func() (err error) { path, err = tbl.PlanAccess(q); return }); err != nil {
			return nil, err
		}
		ranges += float64(len(path.Ranges))
		if q.HasTime {
			for j := range path.Ranges {
				path.Ranges[j].Zoned, path.Ranges[j].ZMin, path.Ranges[j].ZMax = true, q.TMin, q.TMax
			}
		}
		if err := tr.shortest("kv.scan", func() error {
			return kv.ScanCollect(ctx, store, path.Ranges, discardPairs, func(struct{}) bool { return true })
		}); err != nil {
			return nil, err
		}

		// table: the columnar scan; the last call's batches are kept for
		// exec and its rows counted.
		var batches []*exec.ColumnBatch
		var opKept float64
		m0 := store.Metrics().ScanPairs
		if err := tr.shortest("table.scan", func() error {
			batches, opKept = batches[:0], 0
			if w.stmt == "order_knn" {
				return tbl.ScanQuery(ctx, q, func(exec.Row) bool { opKept++; return true })
			}
			return tbl.ScanBatches(ctx, q, needed, func(b *exec.ColumnBatch) bool {
				batches = append(batches, b)
				opKept += float64(b.Len())
				return true
			})
		}); err != nil {
			return nil, err
		}
		kept += opKept
		pairs += float64(store.Metrics().ScanPairs-m0) / spanRepeats

		// core: the engine entry the statement's plan goes through.
		if err := tr.shortest("core.op", func() error {
			switch w.stmt {
			case "order_knn":
				_, err := s.eng.KNN(ctx, user, tblName, p.pt, knnK, core.KNNOptions{})
				return err
			case "order_agg":
				// The aggregate plan scans the table it gets from the
				// engine directly; OpenTable is all core does here.
				t, err := s.eng.OpenTable(user, tblName)
				if err != nil {
					return err
				}
				return t.ScanBatches(ctx, q, needed, func(*exec.ColumnBatch) bool { return true })
			default:
				return s.eng.ScanProjected(ctx, user, tblName, q, cols, func(exec.Row) bool { return true })
			}
		}); err != nil {
			return nil, err
		}

		// sql: parse, plan (EXPLAIN of the parsed statement), execute.
		if err := tr.shortest("sql.parse", func() error { _, err := sql.Parse(stmt); return err }); err != nil {
			return nil, err
		}
		explain, err := sql.Parse("EXPLAIN " + stmt)
		if err != nil {
			return nil, err
		}
		if err := tr.shortest("sql.plan", func() error { _, err := sess.ExecuteStmtContext(ctx, explain); return err }); err != nil {
			return nil, err
		}
		if w.stmt == "order_agg" {
			if err := tr.shortest("exec.agg", func() error {
				_, _, err := exec.AggregateBatches(schema, batches, []int{schema.Index("district")}, aggs,
					[]int{-1, schema.Index("amount")}, 0)
				return err
			}); err != nil {
				return nil, err
			}
		}
		if err := tr.shortest("sql.execute", func() error {
			res, err := sess.ExecuteContext(exec.WithQuery(ctx, exec.NewQuery(0)), stmt)
			if err != nil {
				return err
			}
			res.Frame.Collect()
			res.Frame.Release()
			return nil
		}); err != nil {
			return nil, err
		}

		// server: the whole request, as a client sees it.
		if err := tr.shortest("server.request", func() error { _, _, err := query(cl, stmt, false); return err }); err != nil {
			return nil, err
		}

		op := tr.spans[opStart:]
		for _, sp := range op {
			durs[sp.Name] = append(durs[sp.Name], float64(sp.dur())/1e3)
		}
		self := selfTimes(op)
		for _, name := range selfLayers {
			selfs[name] = append(selfs[name], float64(self[name])/1e3)
			if self[name] < 0 {
				unresolved++
			}
		}
	}

	out := &traceResult{ops: ops, metrics: map[string]float64{
		"index.ranges_per_op": ranges / float64(ops),
		"table.keep_ratio":    ratio(kept, pairs),
		// The share of self times that came out negative: read the
		// *.self_us medians with this.
		"trace.unresolved_frac": unresolved / float64(ops*len(selfLayers)),
	}}
	for name, v := range durs {
		out.metrics[name+"_us"] = median(v)
	}
	for _, name := range selfLayers {
		layer, _, _ := strings.Cut(name, ".")
		out.metrics[layer+".self_us"] = median(selfs[name])
		if out.metrics[layer+".self_us"] < 0 {
			out.unresolved = append(out.unresolved, layer+".self_us")
		}
	}
	if s.rpc != nil {
		var rt []float64
		for i := 0; i < replayOps; i++ {
			tr.op = ops + i
			peer := s.peers[i%len(s.peers)]
			ns, err := tr.once("rpc.roundtrip", func() error { return s.rpc.Ping(ctx, peer) })
			if err != nil {
				return nil, err
			}
			rt = append(rt, float64(ns)/1e3)
		}
		out.metrics["rpc.roundtrip_us"] = median(rt)
	}
	if w.writes {
		if err := replayWrites(ctx, s, d, tbl, cl, sess, firstBatch, tr, out); err != nil {
			return nil, err
		}
	}
	out.spans = tr.spans
	return out, nil
}

// replayWrites times the write path layer by layer, per row. Each call
// gets a fresh batch of the seed's insert stream, so every layer does
// first-insert work (no upserts of rows an earlier layer wrote).
func replayWrites(ctx context.Context, s *system, d *dataset, tbl *table.Table, cl *client.Client, sess *sql.Session,
	firstBatch int, tr *tracer, out *traceResult) error {
	store := s.eng.Store()
	codec := table.NewCodec(tbl.Desc.Columns)
	z2, _ := index.New("z2", index.Config{})
	z2t, _ := index.New("z2t", index.Config{})
	attr := index.NewAttr()
	batch := firstBatch
	rowsOf := func() []exec.Row {
		rows := make([]exec.Row, insertBatch)
		for j := range rows {
			rows[j] = orderAt(d.seed, d.preload+batch*insertBatch+j, d.preload).row()
		}
		batch++
		return rows
	}
	perRow := map[string][]float64{}
	timeRows := func(name string, fn func() error) error {
		ns, err := tr.once(name, fn)
		perRow[name] = append(perRow[name], float64(ns)/1e3/insertBatch)
		return err
	}
	for i := 0; i < writeReplayOps; i++ {
		tr.op = 2*replayOps + i
		// kv: the mutations Table.InsertBatchCtx would emit for a batch
		// (attr + z2 + z2t copy of each row), under a key prefix no
		// table owns, so these rows never count as table rows.
		var wb kv.WriteBatch
		for _, row := range rowsOf() {
			t := row[1].(int64)
			rec := index.Record{FID: table.FIDBytes(row[0]), Geom: row[2].(geom.Point), Start: t, End: t}
			val, err := codec.Encode(row)
			if err != nil {
				return err
			}
			for id, st := range []index.Strategy{nil, z2, z2t} {
				key := attr.KeyForFID(rec.FID)
				if st != nil {
					if key, err = st.Key(rec); err != nil {
						return err
					}
				}
				wb.Put(append([]byte{0xff, 0xff, 0xff, 0xf0, byte(id)}, key...), val)
			}
		}
		if err := timeRows("kv.apply", func() error { return store.ApplyCtx(ctx, &wb) }); err != nil {
			return err
		}
		rows := rowsOf()
		if err := timeRows("table.insert", func() error { return tbl.InsertBatchCtx(ctx, rows) }); err != nil {
			return err
		}
		rows = rowsOf()
		if err := timeRows("core.insert", func() error { return s.eng.InsertContext(ctx, user, orderTable, rows) }); err != nil {
			return err
		}
		stmt := d.insertStatement(batch)
		batch++
		if err := timeRows("sql.insert", func() error { _, err := sess.ExecuteContext(ctx, stmt); return err }); err != nil {
			return err
		}
		stmt = d.insertStatement(batch)
		batch++
		if err := timeRows("server.insert", func() error { _, _, err := query(cl, stmt, false); return err }); err != nil {
			return err
		}
		out.rowsInserted += 4 * insertBatch
	}
	for name, v := range perRow {
		out.metrics[name+"_us_per_row"] = median(v)
	}
	return nil
}

// kernels times single functions on bytes captured from the workload's
// own rows.
func kernels(s *system, w *workloadDef, d *dataset, into map[string]float64) error {
	tblName, stName := orderTable, "z2t"
	if w.traj {
		tblName, stName = trajTable, "xz2t"
	}
	tbl, err := s.eng.OpenTable(user, tblName)
	if err != nil {
		return err
	}
	rows, err := d.rows()
	if err != nil {
		return err
	}
	if len(rows) > 2000 {
		rows = rows[:2000]
	}
	codec := table.NewCodec(tbl.Desc.Columns)
	strat, _ := index.New(stName, index.Config{})
	gi, ti := tbl.GeomIndex(), tbl.TimeIndex()

	// One checked pass first; the timed passes repeat the same calls on
	// the same rows and drop the errors.
	encoded := make([][]byte, len(rows))
	var raw []byte
	for i, r := range rows {
		if encoded[i], err = codec.Encode(r); err != nil {
			return err
		}
		raw = append(raw, encoded[i]...)
	}
	// best of five passes: the kernels are short, and the least
	// disturbed pass is the one that measures the code.
	best := func(pass func()) float64 {
		b := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			t := time.Now()
			pass()
			if e := time.Since(t); e < b {
				b = e
			}
		}
		return float64(b.Nanoseconds())
	}
	n := float64(len(rows))
	into["table.encode_ns_per_row"] = best(func() {
		for i, r := range rows {
			encoded[i], _ = codec.Encode(r)
		}
	}) / n
	into["table.decode_ns_per_row"] = best(func() {
		b := exec.NewColumnBatch(tbl.Schema(), len(rows))
		for _, e := range encoded {
			codec.DecodeIntoBatch(b, b.Grow(), e, nil, nil)
		}
	}) / n
	into["index.key_ns_per_row"] = best(func() {
		for _, r := range rows {
			g, _ := r[gi].(geom.Geometry)
			t, _ := r[ti].(int64)
			strat.Key(index.Record{FID: table.FIDBytes(r[0]), Geom: g, Start: t, End: t})
		}
	}) / n

	// lz4 on SSTable-sized (4 KiB) blocks of encoded rows.
	const block = 4096
	var packed [][]byte
	into["compress.lz4_compress_mb_per_s"] = float64(len(raw)) / best(func() {
		packed = packed[:0]
		for off := 0; off < len(raw); off += block {
			end := off + block
			if end > len(raw) {
				end = len(raw)
			}
			packed = append(packed, compress.CompressLZ4(nil, raw[off:end]))
		}
	}) * 1e3
	dst := make([]byte, block)
	into["compress.lz4_decompress_mb_per_s"] = float64(len(raw)) / best(func() {
		for i, p := range packed {
			n := block
			if (i+1)*block > len(raw) {
				n = len(raw) - i*block
			}
			compress.DecompressLZ4(dst[:n], p)
		}
	}) * 1e3
	return nil
}
