package index

import (
	"encoding/binary"

	"just/internal/geom"
	"just/internal/zorder"
)

// curve fills the code field of a key: index encodes a record's MBR and
// ranges decomposes a query window into code ranges covering every
// record that can match. t1 and t2 are time fractions within the key's
// period; a curve that is not timed ignores them, so one decomposition
// serves every period of a plan.
type curve struct {
	timed  bool
	index  func(m geom.MBR, t1, t2 float64) uint64
	ranges func(w geom.MBR, t1, t2 float64) []zorder.Range
}

// The point curves encode the MBR's center (a point's MBR is the point);
// the XZ curves encode the whole MBR.
var (
	curveZ2 = curve{
		index: func(m geom.MBR, _, _ float64) uint64 {
			c := m.Center()
			return zorder.Z2{}.Index(c.Lng, c.Lat)
		},
		ranges: func(w geom.MBR, _, _ float64) []zorder.Range {
			return zorder.Z2{}.Ranges(w, zorder.DefaultExtraLevels)
		},
	}
	curveZ3 = curve{
		timed: true,
		index: func(m geom.MBR, t1, _ float64) uint64 {
			c := m.Center()
			return zorder.Z3{}.Index(c.Lng, c.Lat, t1)
		},
		ranges: func(w geom.MBR, t1, t2 float64) []zorder.Range {
			return zorder.Z3{}.Ranges(w, t1, t2, zorder.DefaultExtraLevels)
		},
	}
	curveXZ2 = curve{
		index:  func(m geom.MBR, _, _ float64) uint64 { return zorder.XZ2{}.Index(m) },
		ranges: func(w geom.MBR, _, _ float64) []zorder.Range { return zorder.XZ2{}.Ranges(w) },
	}
	curveXZ3 = curve{timed: true, index: zorder.XZ3{}.Index, ranges: zorder.XZ3{}.Ranges}
)

// layout is one row of the paper's key-layout table (Section IV).
type layout struct {
	name string
	// periodic keys carry Num(t) of the record's start time (Equ. 1)
	// between the shard and the code.
	periodic bool
	// lookBack marks records that extend in time: one that starts before
	// the query interval can still overlap it, so plans also visit the
	// MaxRecordPeriods periods before the interval.
	lookBack bool
	curve    curve
}

var layouts = []layout{
	// GeoMesa's native indexes. Z3 and XZ3 interleave time with space
	// inside each period, so spatial filtering degrades when the period
	// is long — the paper's motivation for Z2T.
	{name: "z2", curve: curveZ2},
	{name: "xz2", curve: curveXZ2},
	{name: "z3", periodic: true, curve: curveZ3},
	{name: "xz3", periodic: true, lookBack: true, curve: curveXZ3},
	// The paper's indexes: an independent 2-D curve inside each period,
	// Equ. (2) Num(t) :: Z2(lng, lat) and Equ. (3) Num(tmin) :: XZ2(mbr).
	// Time bits never mix with space bits, so spatial filtering keeps
	// full power whatever the time-window / period ratio.
	{name: "z2t", periodic: true, curve: curveZ2},
	{name: "xz2t", periodic: true, lookBack: true, curve: curveXZ2},
}

// curveStrategy is a layout bound to a configuration; it is stateless
// after construction.
type curveStrategy struct {
	layout
	shards int
	plen   int64 // period length, ms
	back   int64 // periods to look back
}

// Name implements Strategy.
func (s *curveStrategy) Name() string { return s.name }

// Temporal implements Strategy.
func (s *curveStrategy) Temporal() bool { return s.periodic }

// Key implements Strategy: shard ∥ [period] ∥ code ∥ fid.
func (s *curveStrategy) Key(rec Record) ([]byte, error) {
	if err := validateRecord(rec); err != nil {
		return nil, err
	}
	key := make([]byte, 0, 1+4+8+len(rec.FID))
	key = append(key, shardOf(rec.FID, s.shards))
	var t1, t2 float64
	if s.periodic {
		n := periodOf(rec.Start, s.plen)
		key = binary.BigEndian.AppendUint32(key, encodePeriod(n))
		if s.curve.timed {
			t1 = fracInPeriod(rec.Start, n*s.plen, s.plen)
			t2 = fracInPeriod(rec.End, n*s.plen, s.plen)
		}
	}
	key = binary.BigEndian.AppendUint64(key, s.curve.index(rec.Geom.MBR(), t1, t2))
	return append(key, rec.FID...), nil
}

// Plan implements Strategy. A periodic layout visits the periods of the
// query interval cut to the table's span — a one-sided predicate (an
// open bound arrives as a huge value) plans no more periods than the
// table has, and an interval with TMin > TMax plans none. A time-less
// query asks for the whole span. Untimed curves decompose the window
// once for all periods (step 2 of the paper's query algorithm).
func (s *curveStrategy) Plan(q Query, span Span) Plan {
	p := Plan{shards: s.shards, periodic: s.periodic, periods: 1}
	tmin, tmax := span.Min, span.Max
	if q.HasTime {
		tmin, tmax = q.TMin, q.TMax
	}
	if s.periodic {
		lo := periodOf(max(tmin, span.Min), s.plen) - s.back
		hi := periodOf(min(tmax, span.Max), s.plen)
		if tmin > tmax || span.Min > span.Max || lo > hi {
			return Plan{}
		}
		p.first, p.periods = lo, int(hi-lo+1)
	}
	if !s.curve.timed {
		p.codes = [][]zorder.Range{s.curve.ranges(q.Window, 0, 0)}
		return p
	}
	p.codes = make([][]zorder.Range, p.periods)
	for i := range p.codes {
		start := (p.first + int64(i)) * s.plen
		p.codes[i] = s.curve.ranges(q.Window, fracInPeriod(tmin, start, s.plen), fracInPeriod(tmax, start, s.plen))
	}
	return p
}

// PartitionLen is the length of s's keys' shard ∥ period prefix, or 0.
func PartitionLen(s Strategy) int {
	if c, ok := s.(*curveStrategy); ok && c.periodic {
		return 1 + 4 // shard u8, period u32
	}
	return 0
}

// AttrStrategy indexes records by their id for point lookups and id-range
// scans ("attribute indexing" in Fig. 1; JUST uses it for primary keys).
type AttrStrategy struct{}

// NewAttr creates an attribute (fid) strategy.
func NewAttr() *AttrStrategy { return &AttrStrategy{} }

// Name implements Strategy.
func (s *AttrStrategy) Name() string { return "attr" }

// Temporal implements Strategy.
func (s *AttrStrategy) Temporal() bool { return false }

// Key implements Strategy: the fid itself.
func (s *AttrStrategy) Key(rec Record) ([]byte, error) {
	if len(rec.FID) == 0 {
		return nil, ErrNeedGeom
	}
	return s.KeyForFID(rec.FID), nil
}

// Plan implements Strategy: attribute indexes do not answer window
// queries; the plan is the full keyspace.
func (s *AttrStrategy) Plan(Query, Span) Plan { return Plan{whole: true} }

// KeyForFID returns the attribute key for a raw id.
func (s *AttrStrategy) KeyForFID(fid []byte) []byte {
	return append([]byte(nil), fid...)
}

// New builds a strategy by name: z2, xz2, z3, xz3, z2t, xz2t or attr —
// mirroring the `geomesa.indices.enabled` USERDATA hint.
func New(name string, cfg Config) (Strategy, bool) {
	if name == "attr" {
		return NewAttr(), true
	}
	cfg = cfg.withDefaults()
	for _, l := range layouts {
		if l.name != name {
			continue
		}
		s := &curveStrategy{layout: l, shards: cfg.Shards, plen: cfg.Period.Milliseconds()}
		if l.lookBack {
			s.back = int64(cfg.MaxRecordPeriods)
		}
		return s, true
	}
	return nil, false
}

// DefaultFor picks the paper's default strategy for a geometry class:
// Z2+Z2T for point data, XZ2+XZ2T for non-point data (Section V-C).
func DefaultFor(point bool, temporal bool, cfg Config) Strategy {
	name := "xz2"
	if point {
		name = "z2"
	}
	if temporal {
		name += "t"
	}
	s, _ := New(name, cfg)
	return s
}
