package table

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"time"

	"just/internal/exec"
	"just/internal/index"
	"just/internal/kv"
)

// statsSampleSize is the per-index key sample kept by CollectStats. The
// sorted sample is an equi-depth histogram over the index's key space:
// with k sample points, consecutive points bracket Keys/k entries, so
// range selectivity resolves to about 1/k granularity.
const statsSampleSize = 1024

// rangeSeekCost charges each planned key range a fixed overhead, in
// key-read equivalents, for the per-range scan task setup and block
// seeks. It keeps the planner from preferring a thousand near-empty
// ranges over one slightly larger contiguous scan.
const rangeSeekCost = 8.0

// TableStats is the optimizer's view of a table's physical key
// distribution, collected by CollectStats and persisted in the table's
// statistics row (see metaPrefix). PlanAccess costs by a fixed preference when it is absent;
// it is advisory only and never affects result correctness.
type TableStats struct {
	CollectedAtMS int64 `json:"collected_at_ms"`
	// RowCount is the live row count (attribute-index entries) at
	// collection time.
	RowCount int64                 `json:"row_count"`
	Indexes  map[uint8]*IndexStats `json:"indexes"`
	// StringSampled is the number of rows whose string columns were
	// sampled, and StringDistinct the per-column distinct value counts
	// seen in that sample (keyed by column name). They drive the
	// dictionary-interning decision: a column whose sampled cardinality
	// is a small fraction of the sample is worth one canonical string
	// per distinct value instead of one allocation per row.
	StringSampled  int64            `json:"string_sampled,omitempty"`
	StringDistinct map[string]int64 `json:"string_distinct,omitempty"`
}

// IndexStats summarizes one index's key population.
type IndexStats struct {
	// Keys is the number of live entries under the index prefix.
	Keys int64 `json:"keys"`
	// Sample is a sorted uniform sample of strategy-local keys (the
	// 5-byte table/index prefix stripped). Because temporal strategies
	// embed the time period and all SFC strategies embed the curve
	// address in the key, the sample doubles as a selectivity histogram
	// over both period occupancy and curve-space occupancy.
	Sample [][]byte `json:"sample"`
}

// estimate returns the expected number of index entries inside the
// strategy-local key ranges of plan: the share of the sample they hold,
// scaled to the key count. An index the snapshot does not cover (nil)
// estimates as empty.
func (s *IndexStats) estimate(plan index.Plan) float64 {
	if s == nil || s.Keys == 0 || len(s.Sample) == 0 {
		return 0
	}
	// rank is the number of sample keys below k.
	rank := func(k []byte) int {
		return sort.Search(len(s.Sample), func(i int) bool {
			return bytes.Compare(s.Sample[i], k) >= 0
		})
	}
	hits := 0
	plan.Each(nil, func(start, end []byte) {
		hi := len(s.Sample)
		if end != nil {
			hi = rank(end)
		}
		hits += max(hi-rank(start), 0)
	})
	return float64(hits) / float64(len(s.Sample)) * float64(s.Keys)
}

// CollectStats scans every index's key range (keys only — values are
// never decoded) and builds fresh statistics: exact entry counts plus a
// reservoir key sample per index. The reservoir is seeded
// deterministically and fed in key order (ScanRange), so repeated
// collections over unchanged data agree on every store, whatever its
// region count.
func (t *Table) CollectStats(ctx context.Context) (*TableStats, error) {
	st := &TableStats{
		CollectedAtMS: time.Now().UnixMilli(),
		Indexes:       make(map[uint8]*IndexStats, len(t.Desc.Indexes)),
	}
	for _, id := range t.Desc.Indexes {
		prefix := t.keyPrefix(id.ID)
		is := &IndexStats{}
		rng := rand.New(rand.NewSource(1))
		var sample [][]byte
		err := kv.ScanRange(ctx, t.cluster, index.KeysUnder(prefix),
			func(k, _ []byte) bool {
				is.Keys++
				if len(sample) < statsSampleSize {
					sample = append(sample, append([]byte(nil), k[len(prefix):]...))
				} else if j := rng.Int63n(is.Keys); j < statsSampleSize {
					sample[j] = append([]byte(nil), k[len(prefix):]...)
				}
				return true
			})
		if err != nil {
			return nil, exec.MapCtxErr(err)
		}
		sort.Slice(sample, func(i, j int) bool { return bytes.Compare(sample[i], sample[j]) < 0 })
		is.Sample = sample
		st.Indexes[id.ID] = is
		if id.ID == t.attrID {
			st.RowCount = is.Keys
		}
	}
	if err := t.sampleStringCardinality(ctx, st); err != nil {
		return nil, err
	}
	return st, nil
}

// sampleStringCardinality decodes the string columns of a bounded prefix
// of the attribute index (values are decoded nowhere else in stats
// collection) and records per-column distinct counts.
func (t *Table) sampleStringCardinality(ctx context.Context, st *TableStats) error {
	var strIdx []int
	for i, col := range t.Desc.Columns {
		if col.Type == exec.TypeString {
			strIdx = append(strIdx, i)
		}
	}
	if len(strIdx) == 0 {
		return nil
	}
	mask := make([]bool, len(t.Desc.Columns))
	for _, i := range strIdx {
		mask[i] = true
	}
	distinct := make([]map[string]struct{}, len(strIdx))
	for i := range distinct {
		distinct[i] = make(map[string]struct{})
	}
	var sampled int64
	err := kv.ScanRange(ctx, t.cluster, index.KeysUnder(t.keyPrefix(t.attrID)),
		func(_, v []byte) bool {
			row, err := t.codec.DecodeProjected(v, mask)
			if err != nil {
				return true // skip undecodable rows; scrub owns them
			}
			for j, ci := range strIdx {
				if s, ok := row[ci].(string); ok {
					distinct[j][s] = struct{}{}
				}
			}
			sampled++
			return sampled < statsSampleSize
		})
	if err != nil {
		return exec.MapCtxErr(err)
	}
	st.StringSampled = sampled
	st.StringDistinct = make(map[string]int64, len(strIdx))
	for j, ci := range strIdx {
		st.StringDistinct[t.Desc.Columns[ci].Name] = int64(len(distinct[j]))
	}
	return nil
}

// internSampleMin is the smallest string sample the interning decision
// trusts; internMaxFraction caps a dictionary-worthy column's sampled
// cardinality at sampled/internMaxFraction.
const (
	internSampleMin   = 64
	internMaxFraction = 8
)

// internDecision derives per-column interning flags from a statistics
// snapshot; nil when no column qualifies.
func internDecision(cols []Column, st *TableStats) *[]bool {
	if st == nil || st.StringSampled < internSampleMin {
		return nil
	}
	flags := make([]bool, len(cols))
	any := false
	for i, col := range cols {
		if col.Type != exec.TypeString {
			continue
		}
		d, ok := st.StringDistinct[col.Name]
		if ok && d > 0 && d <= st.StringSampled/internMaxFraction {
			flags[i] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	return &flags
}

// SetStats installs statistics for the planner (atomically; concurrent
// scans keep using the snapshot they started with) and re-derives the
// dictionary-interning flags the columnar decode path consults.
func (t *Table) SetStats(st *TableStats) {
	t.stats.Store(st)
	t.internCols.Store(internDecision(t.Desc.Columns, st))
}

// Stats returns the installed statistics, or nil before any collection.
func (t *Table) Stats() *TableStats { return t.stats.Load() }

// RefreshStats recollects statistics, writes them to the table's
// statistics row so they survive restarts, and installs them.
func (t *Table) RefreshStats(ctx context.Context) (*TableStats, error) {
	st, err := t.CollectStats(ctx)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	var b kv.WriteBatch
	b.Put(t.metaKey('s', 0), data)
	if err := t.cluster.ApplyCtx(ctx, &b); err != nil {
		return nil, exec.MapCtxErr(err)
	}
	t.SetStats(st)
	return st, nil
}

// AccessPath is a planned physical access: the chosen index, its
// prefixed key ranges, and the statistics estimate that picked it.
type AccessPath struct {
	// Strategy is the index strategy name ("z2t", "xz2", ...), or
	// "attr" for the attribute-index full scan.
	Strategy string
	IndexID  uint8
	Ranges   []kv.KeyRange
	// EstKeys is the estimated number of index entries the plan reads;
	// -1 when the path was chosen without statistics.
	EstKeys float64
}

// PlanAccess chooses the access path for q: the one place a window
// becomes key ranges. The candidates are the attribute-index full scan
// and every curve index; the cheapest wins, the earlier one on a tie.
//
// With statistics installed each candidate is planned in factorised
// form (index.Plan) and costed there: estimated entries read plus a
// per-range seek charge. The attribute scan is a real contender — for
// a window covering most of the data it beats thousands of curve
// ranges. Without statistics the cost is the fixed preference: an index
// that is temporal exactly when the query has time bounds, else any
// curve index, else the attribute scan.
//
// Every plan is cut to the table's time span (TimeSpan), so neither an
// open-ended time predicate nor a time-less query on a temporal index
// plans a period the table does not have. Only the winner is expanded
// into kv.KeyRanges, already under the table / index prefix.
func (t *Table) PlanAccess(q index.Query) (AccessPath, error) {
	st, span := t.Stats(), t.TimeSpan()
	type candidate struct {
		s    index.Strategy
		id   uint8
		plan index.Plan
		est  float64
	}
	best, bestCost := candidate{}, math.Inf(1)
	consider := func(s index.Strategy, id uint8, preference float64) {
		c, cost := candidate{s: s, id: id, est: -1}, preference
		if st != nil {
			c.plan = s.Plan(q, span)
			c.est = st.Indexes[id].estimate(c.plan)
			cost = c.est + float64(c.plan.Len())*rangeSeekCost
		}
		if cost < bestCost {
			best, bestCost = c, cost
		}
	}
	consider(t.attr, t.attrID, 2)
	for _, s := range t.strategies {
		if s.Temporal() == q.HasTime {
			consider(s.Strategy, s.id, 0)
		} else {
			consider(s.Strategy, s.id, 1)
		}
	}
	if st == nil {
		// The preference needs no plan, so only the winner gets one.
		best.plan = best.s.Plan(q, span)
	}
	return AccessPath{
		Strategy: best.s.Name(),
		IndexID:  best.id,
		Ranges:   best.plan.KeyRanges(t.keyPrefix(best.id)),
		EstKeys:  best.est,
	}, nil
}
