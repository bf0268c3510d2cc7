package table

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"just/internal/compress"
	"just/internal/exec"
	"just/internal/geom"
	"just/internal/index"
	"just/internal/kv"
)

// Table binds a catalog descriptor to the storage cluster: it knows how
// to encode rows, build every configured index key, and plan scans. It
// is the runtime behind both common and plugin tables.
type Table struct {
	Desc    *Desc
	codec   *Codec
	cluster kv.Store

	strategies []spatialIndex // Desc.Indexes without the attribute index, in order
	attr       *index.AttrStrategy
	attrID     uint8

	// minT / maxT bound the start times of the rows the table holds
	// (empty while minT > maxT). InsertBatchCtx widens them before the
	// rows it writes become readable, so PlanAccess may cut any query
	// interval to them; they only ever widen, so an unlocked reader
	// sees a span at least as wide as the rows it can reach.
	minT, maxT atomic.Int64
	// storedMin / storedMax is the span the table's meta rows are known
	// to cover (see putMeta).
	storedMin, storedMax atomic.Int64

	fidIdx  int
	geomIdx int // -1 when the table has no geometry
	timeIdx int // -1 when the table has no time column
	endIdx  int

	// stats holds the planner statistics snapshot (see stats.go); nil
	// until the first collection, when PlanAccess goes cost-based.
	stats atomic.Pointer[TableStats]
	// internCols flags string columns whose sampled cardinality is low
	// enough that the columnar decode path interns their values through
	// a per-scan-task dictionary (see SetStats); nil disables interning.
	internCols atomic.Pointer[[]bool]
}

// spatialIndex is one curve index of a table: the strategy and its
// key-space discriminator.
type spatialIndex struct {
	index.Strategy
	id uint8
}

// IndexConfig carries strategy tunables shared by a table's indexes.
type IndexConfig = index.Config

// Open binds a descriptor to the storage fabric (the in-process
// cluster, or a router over networked region servers) and reads the
// table's span and statistics from its meta rows.
func Open(d *Desc, cluster kv.Store, cfg IndexConfig) (*Table, error) {
	t, err := resolve(d, cluster, cfg)
	if err != nil {
		return nil, err
	}
	if err := t.loadMeta(context.Background()); err != nil {
		return nil, err
	}
	// Every index copy stores the same encoded row, so one extractor
	// serves all of the table's key prefixes: SSTables flushed or
	// compacted from here on carry per-block [min,max] record-time zone
	// maps, which time-windowed scans use to skip blocks before disk
	// read and decompression. A periodic index also registers the length
	// of its (shard, period) prefixes, which each SSTable summarises.
	var zfn kv.ZoneExtractor
	if t.timeIdx >= 0 {
		zfn = func(_, value []byte) (int64, int64, bool) {
			return t.codec.DecodeTimeBounds(value, t.timeIdx, t.endIdx)
		}
	}
	cluster.RegisterKeyFamily(t.keyPrefix(t.attrID), kv.KeyFamily{Zone: zfn})
	for _, s := range t.strategies {
		prefix := t.keyPrefix(s.id)
		cluster.RegisterKeyFamily(prefix, kv.KeyFamily{Zone: zfn, PrefixLen: len(prefix) + index.PartitionLen(s.Strategy)})
	}
	return t, nil
}

// resolve builds the runtime of d's field roles and indexes, or says
// why d cannot be opened; it reads and registers nothing, so
// Catalog.Create runs it before it stores d.
func resolve(d *Desc, cluster kv.Store, cfg IndexConfig) (*Table, error) {
	t := &Table{Desc: d, codec: NewCodec(d.Columns), cluster: cluster}
	schema := d.Schema()
	t.fidIdx, t.geomIdx = schema.Index(d.FidColumn), schema.Index(d.GeomColumn)
	t.timeIdx, t.endIdx = schema.Index(d.TimeColumn), schema.Index(d.EndTimeColumn)
	if t.fidIdx < 0 {
		return nil, fmt.Errorf("%w: table %s has no primary key column", ErrBadSchema, d.Name)
	}
	for _, id := range d.Indexes {
		if id.Strategy == "attr" {
			t.attr = index.NewAttr()
			t.attrID = id.ID
			continue
		}
		c := cfg
		if id.PeriodMS > 0 {
			c.Period = time.Duration(id.PeriodMS) * time.Millisecond
		}
		s, ok := index.New(id.Strategy, c)
		if !ok {
			return nil, fmt.Errorf("table: unknown index strategy %q", id.Strategy)
		}
		t.strategies = append(t.strategies, spatialIndex{s, id.ID})
	}
	if t.attr == nil {
		return nil, fmt.Errorf("%w: table %s missing attr index", ErrBadSchema, d.Name)
	}
	return t, nil
}

// Schema returns the table's exec schema.
func (t *Table) Schema() *exec.Schema { return t.Desc.Schema() }

// keyPrefix builds [tableID u32][indexID u8].
func (t *Table) keyPrefix(indexID uint8) []byte {
	return t.appendKey(make([]byte, 0, 5), indexID, nil)
}

// appendKey appends the key prefix of indexID and then raw to dst.
func (t *Table) appendKey(dst []byte, indexID uint8, raw []byte) []byte {
	id := t.Desc.TableID
	return append(append(dst, byte(id>>24), byte(id>>16), byte(id>>8), byte(id), indexID), raw...)
}

// TimeSpan returns the span of record start times the table holds.
func (t *Table) TimeSpan() index.Span {
	return index.Span{Min: t.minT.Load(), Max: t.maxT.Load()}
}

// widen grows the span [*minT, *maxT] to include [lo, hi].
func widen(minT, maxT *atomic.Int64, lo, hi int64) {
	for cur := minT.Load(); lo < cur && !minT.CompareAndSwap(cur, lo); cur = minT.Load() {
	}
	for cur := maxT.Load(); hi > cur && !maxT.CompareAndSwap(cur, hi); cur = maxT.Load() {
	}
}

// FIDBytes canonicalizes a primary-key value. The common key types are
// handled without reflection; everything else keeps the fmt rendering
// (which []byte deliberately avoids — "%v" prints a byte slice as its
// decimal elements, not its contents).
func FIDBytes(v any) []byte {
	switch v := v.(type) {
	case string:
		return []byte(v)
	case int64:
		return strconv.AppendInt(nil, v, 10)
	case []byte:
		return append([]byte(nil), v...)
	}
	return []byte(fmt.Sprintf("%v", v))
}

// record extracts the indexable digest from a row.
func (t *Table) record(row exec.Row) index.Record {
	rec := index.Record{FID: FIDBytes(row[t.fidIdx])}
	if t.geomIdx >= 0 {
		rec.Geom, _ = row[t.geomIdx].(geom.Geometry)
	}
	if t.timeIdx >= 0 {
		if ts, ok := row[t.timeIdx].(int64); ok {
			rec.Start, rec.End = ts, ts
		}
	}
	if t.endIdx >= 0 {
		if te, ok := row[t.endIdx].(int64); ok {
			rec.End = te
		}
	}
	return rec
}

// InsertBatchCtx writes rows into the attribute index and every spatial
// index through the batched group-commit write path: rows are encoded
// and compressed in parallel across a worker pool, the previous
// versions for the delete-before-write upsert are probed with one
// MultiGetCtx, and all mutations — tombstones for moved index entries,
// the attribute copy, every spatial index copy — are emitted as one
// kv.WriteBatch, so each storage region takes its lock and syncs its
// WAL once per batch instead of once per key. The table's span rides in
// the same batch, ahead of the rows (putMeta): on the standalone store
// it commits atomically with them, and the router applies the group
// holding it first.
//
// Re-inserting a fid overwrites all copies — the update-enabled
// property: keys depend only on the record itself (Section I,
// characteristic 3). When the update moves the record in space or time,
// the superseded index entries are tombstoned first (GeoMesa's
// delete-before-write upsert); fids repeated within the batch resolve
// in row order (later rows win). On the networked store the remaining
// budget of ctx rides each kv request to the region servers.
func (t *Table) InsertBatchCtx(ctx context.Context, rows []exec.Row) error {
	if len(rows) == 0 {
		return nil
	}
	type prepRow struct {
		rec     index.Record
		value   []byte
		attrKey []byte
		newKeys [][]byte // parallel to t.strategies; nil for non-spatial rows
	}
	preps := make([]prepRow, len(rows))
	ns := len(t.strategies)
	spatialKeys := make([][]byte, len(rows)*ns)
	// Stage 1: encode + compress + index-key computation, in parallel
	// (strategies are stateless after construction).
	err := parallelRows(len(rows), func(i int) error {
		rec := t.record(rows[i])
		value, err := t.codec.Encode(rows[i])
		if err != nil {
			return err
		}
		p := prepRow{rec: rec, value: value, newKeys: spatialKeys[i*ns : (i+1)*ns : (i+1)*ns]}
		for si, s := range t.strategies {
			if rec.Geom == nil {
				continue
			}
			if p.newKeys[si], err = s.Key(rec); err != nil {
				return err
			}
		}
		preps[i] = p
		return nil
	})
	if err != nil {
		return err
	}
	// Prefix every key with its table and index ids in one arena for the
	// batch: the attribute keys first, so that one string of them keys
	// lastByFID below.
	size := 0
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range preps {
		lo, hi = min(lo, preps[i].rec.Start), max(hi, preps[i].rec.Start)
		size += 5 + len(preps[i].rec.FID)
		for _, key := range preps[i].newKeys {
			size += 5 + len(key)
		}
	}
	arena := make([]byte, 0, size)
	prefixed := func(indexID uint8, raw []byte) []byte {
		start := len(arena)
		arena = t.appendKey(arena, indexID, raw)
		return arena[start:len(arena):len(arena)]
	}
	for i := range preps {
		preps[i].attrKey = prefixed(t.attrID, preps[i].rec.FID)
	}
	attrKeyText := string(arena)
	for i := range preps {
		for si, key := range preps[i].newKeys {
			if key != nil {
				preps[i].newKeys[si] = prefixed(t.strategies[si].id, key)
			}
		}
	}
	// Stage 2: one batched existence probe for the upsert path.
	attrKeys := make([][]byte, len(rows))
	for i := range preps {
		attrKeys[i] = preps[i].attrKey
	}
	oldVals, err := t.cluster.MultiGetCtx(ctx, attrKeys)
	if err != nil {
		return err
	}
	// Stage 3: decode the found previous versions and recompute their
	// index keys, again in parallel — when there are any.
	oldKeys := make([][][]byte, len(rows))
	if slices.ContainsFunc(oldVals, func(v []byte) bool { return v != nil }) {
		err = parallelRows(len(rows), func(i int) error {
			if oldVals[i] == nil {
				return nil
			}
			oldRow, err := t.codec.Decode(oldVals[i])
			if err != nil {
				return err
			}
			oldRec := t.record(oldRow)
			if oldRec.Geom == nil {
				return nil
			}
			keys := make([][]byte, len(t.strategies))
			for si, s := range t.strategies {
				key, err := s.Key(oldRec)
				if err != nil {
					return err
				}
				keys[si] = t.appendKey(nil, s.id, key)
			}
			oldKeys[i] = keys
			return nil
		})
		if err != nil {
			return err
		}
	}
	// Stage 4: assemble the batch in row order (later mutations win in
	// the memtable, so repeated fids resolve exactly as sequential
	// Inserts would). A fid already written earlier in this batch uses
	// that row's keys as the previous version — the MultiGet probe saw
	// only the pre-batch state.
	var batch kv.WriteBatch
	batch.Grow(len(rows)*(1+len(t.strategies)) + 4) // + putMeta's puts and deletes
	t.putMeta(&batch, lo, hi)
	lastByFID := make(map[string]int, len(rows))
	for i := range preps {
		prior := oldKeys[i]
		fid := attrKeyText[:len(preps[i].attrKey)]
		attrKeyText = attrKeyText[len(fid):]
		if j, ok := lastByFID[fid]; ok {
			prior = preps[j].newKeys
		}
		for si, old := range prior {
			if old == nil {
				continue
			}
			if preps[i].newKeys[si] == nil || !bytes.Equal(old, preps[i].newKeys[si]) {
				batch.Delete(old)
			}
		}
		batch.Put(preps[i].attrKey, preps[i].value)
		for _, key := range preps[i].newKeys {
			if key != nil {
				batch.Put(key, preps[i].value)
			}
		}
		lastByFID[fid] = i
	}
	// Before the apply: a row is never readable outside the span.
	widen(&t.minT, &t.maxT, lo, hi)
	if err := t.cluster.ApplyCtx(ctx, &batch); err != nil {
		return err
	}
	widen(&t.storedMin, &t.storedMax, lo, hi)
	return nil
}

// parallelRows runs fn(i) for i in [0, n) across GOMAXPROCS workers and
// returns the first error (work-stealing via an atomic cursor, so a few
// expensive rows — big gzip'd trajectories — don't skew one worker).
func parallelRows(n int, fn func(int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// GetCtx fetches a row by primary key.
func (t *Table) GetCtx(ctx context.Context, fid any) (exec.Row, error) {
	key := append(t.keyPrefix(t.attrID), t.attr.KeyForFID(FIDBytes(fid))...)
	v, err := t.cluster.GetCtx(ctx, key)
	if err != nil {
		return nil, err
	}
	return t.codec.Decode(v)
}

// ScanQuery streams rows matching the spatio-temporal window: it plans
// key ranges on the best index, SCANs them in parallel, decodes, and
// post-filters on the record's MBR and time span (the curve-level
// over-approximation is removed here; exact geometry refinement belongs
// to the caller, which knows the predicate). Every column is decoded.
func (t *Table) ScanQuery(ctx context.Context, q index.Query, emit func(exec.Row) bool) error {
	return t.ScanProjected(ctx, q, nil, emit)
}

// ScanProjected is ScanQuery with projection pushdown: needed marks the
// columns the caller will read (nil = all). It is the one row adapter
// over ScanBatches — rows are boxed out of the column batches at the
// emit edge. Columns outside needed (and outside the window filter
// set, which is always decoded) are left nil in emitted rows.
func (t *Table) ScanProjected(ctx context.Context, q index.Query, needed []bool, emit func(exec.Row) bool) error {
	return t.ScanBatches(ctx, q, needed, rowsOf(emit))
}

// rowsOf adapts a row consumer to a batch consumer. The rows are boxed
// copies, so the batch goes back to the scan.
func rowsOf(emit func(exec.Row) bool) func(*exec.ColumnBatch) bool {
	return func(b *exec.ColumnBatch) bool {
		defer b.Recycle()
		for i := 0; i < b.Len(); i++ {
			if !emit(b.RowAt(i)) {
				return false
			}
		}
		return true
	}
}

// ScanBatches is the columnar scan pipeline: key ranges are planned on
// the cheapest index (PlanAccess), zone hints narrow which SSTable
// blocks are read at all, and each scan task decodes survivors straight
// into ColumnBatch vectors (kv.ScanCollect) — no per-row boxing on the
// hot path. Filtering is staged by cost: record time is pre-checked
// from the encoded bytes (Codec.DecodeTimeBounds, no allocation), the
// filter columns of time-survivors are decoded and checked against the
// window, and only rows passing both materialize their remaining
// needed columns — a trajectory rejected by the time window never
// inflates its gzip'd GPS list.
//
// Batches handed to emit are charged against the per-query memory
// budget (exec.QueryFromContext) while in flight. emit owns each batch
// it keeps; one it does not keep it hands back (ColumnBatch.Recycle),
// and the scan refills it once emit returns.
func (t *Table) ScanBatches(ctx context.Context, q index.Query, needed []bool, emit func(*exec.ColumnBatch) bool) error {
	if err := t.syncSpan(ctx, q); err != nil {
		return err
	}
	path, err := t.PlanAccess(q)
	if err != nil {
		return err
	}
	ranges := path.Ranges
	if q.HasTime && t.timeIdx >= 0 {
		for i := range ranges {
			ranges[i].Zoned, ranges[i].ZMin, ranges[i].ZMax = true, q.TMin, q.TMax
		}
	}
	return t.collectBatches(ctx, ranges, &q, needed, emit)
}

// collectBatches scans ranges into column batches. q, when non-nil, is
// the window every row must pass (see ScanBatches for the staging); a
// nil q keeps every row, geometry or not.
func (t *Table) collectBatches(ctx context.Context, ranges []kv.KeyRange, q *index.Query, needed []bool, emit func(*exec.ColumnBatch) bool) error {
	schema := t.Schema()
	var filter []bool
	if q != nil {
		filter = t.filterCols()
	}
	// rest = the needed columns the filter pass has not already decoded.
	rest := make([]bool, len(t.Desc.Columns))
	for i := range rest {
		rest[i] = (needed == nil || needed[i]) && (filter == nil || !filter[i])
	}
	timeCheck := filter != nil && q.HasTime && t.timeIdx >= 0
	qry := exec.QueryFromContext(ctx)
	// Batches emit handed back, refilled by whichever worker next needs
	// one. 16 holds all a scan can have in flight on the standalone store
	// (one per scan worker, at most 5, plus kv's worker → consumer queue
	// of 10), so none is dropped.
	spare := make(chan *exec.ColumnBatch, 16)
	// One collector serves all of a scan worker's tasks, so a partly
	// filled batch carries over from one task to the next.
	newTask := func() kv.TaskCollector[*exec.ColumnBatch] {
		// Batch capacity ramps up (32 → BatchRows): a LIMIT-style query
		// that stops after a few rows, or one running under a tight
		// memory budget, only ever pays for a small first batch, while a
		// long scan reaches full-size batches within three flushes.
		c := exec.BatchRows / 8
		// The batch and the dictionaries are taken on the first decoded
		// row after the previous batch left: most tasks of a selective
		// plan never see a row, and then they cost nothing.
		var b *exec.ColumnBatch
		var interns []*compress.Dict
		add := func(_, v []byte) (*exec.ColumnBatch, bool, error) {
			if timeCheck {
				if tmin, tmax, ok := t.codec.DecodeTimeBounds(v, t.timeIdx, t.endIdx); ok && (tmin > q.TMax || tmax < q.TMin) {
					return nil, false, nil
				}
			}
			if b == nil {
				select {
				case b = <-spare:
				default:
					b = exec.NewColumnBatch(schema, c)
				}
				// Per-batch string dictionaries for columns whose sampled
				// cardinality marked them worth interning. A worker decodes
				// its rows sequentially, so an unshared Dict needs no
				// locking, and its lifetime (the batch it fills) bounds the
				// memory it can hold to strings the batch itself keeps.
				interns = nil
				if ic := t.internCols.Load(); ic != nil {
					interns = make([]*compress.Dict, len(t.Desc.Columns))
					for i, on := range *ic {
						if on && (rest[i] || (filter != nil && filter[i])) {
							interns[i] = new(compress.Dict)
						}
					}
				}
			}
			ri := b.Grow()
			if filter != nil {
				if err := t.codec.DecodeIntoBatch(b, ri, v, filter, interns); err != nil {
					return nil, false, err
				}
				if !t.matchesAt(b, ri, *q) {
					b.Ungrow()
					return nil, false, nil
				}
			}
			if err := t.codec.DecodeIntoBatch(b, ri, v, rest, interns); err != nil {
				return nil, false, err
			}
			if b.Rows() < b.Cap() {
				return nil, false, nil
			}
			out := b
			if c < exec.BatchRows {
				c *= 2
			}
			b = nil
			return out, true, nil
		}
		finish := func() (*exec.ColumnBatch, bool, error) {
			if b == nil || b.Rows() == 0 {
				return nil, false, nil
			}
			return b, true, nil
		}
		return kv.TaskCollector[*exec.ColumnBatch]{Add: add, Finish: finish}
	}
	var budgetErr error
	err := kv.ScanCollect(ctx, t.cluster, ranges, newTask, func(b *exec.ColumnBatch) bool {
		sz := b.MemSize()
		if err := qry.Reserve(sz); err != nil {
			budgetErr = err
			return false
		}
		keep := emit(b)
		qry.Release(sz)
		if b.Reclaim() {
			select {
			case spare <- b:
			default:
			}
		}
		return keep
	})
	if budgetErr != nil {
		return budgetErr
	}
	return exec.MapCtxErr(err)
}

// matchesAt post-filters batch row ri against the query window: the
// record's MBR must intersect it and its time span must overlap. No
// boxing for the time columns.
func (t *Table) matchesAt(b *exec.ColumnBatch, ri int, q index.Query) bool {
	if t.geomIdx >= 0 {
		g, _ := b.Col(t.geomIdx).Value(ri).(geom.Geometry)
		if g == nil || !g.MBR().Intersects(q.Window) {
			return false
		}
	}
	if q.HasTime && t.timeIdx >= 0 {
		var start int64
		if tv := b.Col(t.timeIdx); !tv.Nulls[ri] {
			start = tv.Ints[ri]
		}
		end := start
		if t.endIdx >= 0 {
			if ev := b.Col(t.endIdx); !ev.Nulls[ri] {
				end = ev.Ints[ri]
			}
		}
		if start > q.TMax || end < q.TMin {
			return false
		}
	}
	return true
}

// filterCols returns the bitmap of columns matchesAt reads, or nil when
// the table has no window-filterable columns.
func (t *Table) filterCols() []bool {
	if t.geomIdx < 0 && t.timeIdx < 0 && t.endIdx < 0 {
		return nil
	}
	f := make([]bool, len(t.Desc.Columns))
	for _, i := range []int{t.geomIdx, t.timeIdx, t.endIdx} {
		if i >= 0 {
			f[i] = true
		}
	}
	return f
}

// FullScan streams every row via the attribute index — the same batch
// collector as ScanBatches with no window, so rows without a geometry
// are returned too.
func (t *Table) FullScan(ctx context.Context, emit func(exec.Row) bool) error {
	ranges := []kv.KeyRange{index.KeysUnder(t.keyPrefix(t.attrID))}
	return t.collectBatches(ctx, ranges, nil, nil, rowsOf(emit))
}

// DropData deletes every key owned by the table, its meta rows and
// descriptor too, and unregisters its key families. Keys are
// collected without touching the values and deleted in one WriteBatch.
func (t *Table) DropData(ctx context.Context) error {
	var b kv.WriteBatch
	b.Delete(descKey(QualifiedName(t.Desc.User, t.Desc.Name)))
	// [tableID u32] covers every index.
	for _, prefix := range [][]byte{t.keyPrefix(0)[:4], metaPrefix(t.Desc.TableID)} {
		err := kv.ScanRange(ctx, t.cluster, index.KeysUnder(prefix), func(k, _ []byte) bool {
			b.Delete(append([]byte(nil), k...))
			return true
		})
		if err != nil {
			return exec.MapCtxErr(err)
		}
	}
	if err := t.cluster.ApplyCtx(ctx, &b); err != nil {
		return exec.MapCtxErr(err)
	}
	for _, id := range t.Desc.Indexes {
		t.cluster.RegisterKeyFamily(t.keyPrefix(id.ID), kv.KeyFamily{})
	}
	return nil
}

// GeomIndex returns the geometry column position or -1.
func (t *Table) GeomIndex() int { return t.geomIdx }

// TimeIndex returns the time column position or -1.
func (t *Table) TimeIndex() int { return t.timeIdx }
