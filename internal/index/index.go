// Package index implements JUST's indexing strategies: GeoMesa's native
// Z2, Z3, XZ2 and XZ3, and the paper's novel Z2T and XZ2T (Section IV).
//
// A strategy maps a record to a one-dimensional row key so that records
// close in space and time get lexicographically close keys, and maps a
// spatio-temporal window query to a small set of key ranges for the
// storage layer to SCAN.
//
// All six are one key template (all integers big-endian so byte order
// equals numeric order); Equ. 2 and 3 of the paper are the template with
// Z2 and XZ2 as the curve:
//
//	[shard u8] [period u32]? [curve code u64] [fid]
//
// The rows of the layouts table in strategies.go say, per strategy,
// whether the period is present and which curve fills the code. The
// shard byte plays GeoMesa's "random prefix" role, spreading load
// across regions; we derive it from the record id so rewrites of the same
// record land on the same key (that is what makes JUST update-enabled).
package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"just/internal/geom"
	"just/internal/kv"
	"just/internal/zorder"
)

// ErrNeedGeom reports a record without a geometry.
var ErrNeedGeom = errors.New("index: record has no geometry")

// Record is the indexable digest of a row: its id, geometry and time span.
type Record struct {
	FID  []byte
	Geom geom.Geometry
	// Start and End are Unix milliseconds; End == Start for instant
	// records. Zero values are valid times (the epoch).
	Start, End int64
}

// Query is a spatio-temporal window.
type Query struct {
	Window geom.MBR
	// HasTime gates the temporal constraint [TMin, TMax] (inclusive, ms).
	HasTime    bool
	TMin, TMax int64
}

// Span is the closed interval [Min, Max] of record start times (ms) a
// table holds; Min > Max means it holds none. Keys carry the period of
// the record's start time, so no key exists outside the span's periods
// and a plan never has to leave them, however wide the query.
type Span struct{ Min, Max int64 }

// Strategy converts records to keys and queries to key ranges.
type Strategy interface {
	// Name returns the strategy identifier used in USERDATA hints
	// (e.g. "z2t").
	Name() string
	// Temporal reports whether the strategy partitions by time period.
	Temporal() bool
	// Key builds the row key for a record.
	Key(rec Record) ([]byte, error)
	// Plan produces the key ranges a SCAN must cover so that every
	// record of a table spanning span that matches q is visited
	// (over-approximate; callers refine).
	Plan(q Query, span Span) Plan
}

// Config carries the tunables shared by all strategies.
type Config struct {
	// Shards is the number of shard prefixes; default 4.
	Shards int
	// Period is the time-period length for temporal strategies;
	// default 24h (the paper's Table III setting).
	Period time.Duration
	// MaxRecordPeriods bounds how many periods a single record may span
	// (its index period is that of its start time); queries look this
	// many extra periods back. Default 1.
	MaxRecordPeriods int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Period <= 0 {
		c.Period = 24 * time.Hour
	}
	if c.MaxRecordPeriods <= 0 {
		c.MaxRecordPeriods = 1
	}
	return c
}

// Plan is a query's key ranges in factorised form: every key prefix
// (shard, or shard ∥ period) crossed with the curve-code ranges of its
// period. Costing walks it with Each; only the plan that wins is
// expanded into kv.KeyRanges.
type Plan struct {
	whole    bool // the single range covering every key (attribute index)
	shards   int
	periodic bool  // prefixes carry a period
	first    int64 // the first period
	// periods counts the consecutive periods from first: 1 for a
	// period-less key, 0 for a plan that reads nothing.
	periods int
	// codes holds one list shared by every period (the curve ignores
	// time) or one list per period (time is interleaved).
	codes [][]zorder.Range
}

// Len returns the number of key ranges the plan expands to.
func (p Plan) Len() int {
	if p.whole {
		return 1
	}
	n := 0
	for _, c := range p.codes {
		n += len(c)
	}
	if len(p.codes) == 1 {
		n *= p.periods // one list shared by every period
	}
	return n * p.shards
}

// Each calls fn with every key range [start, end) of the plan under the
// key prefix base, in key-template order (period, shard, code). start
// and end are reused between calls; end is nil when no key follows the
// range.
func (p Plan) Each(base []byte, fn func(start, end []byte)) {
	if p.whole {
		fn(base, nextPrefix(base))
		return
	}
	n := len(base) + 1
	if p.periodic {
		n += 4
	}
	start, end := make([]byte, n+8), make([]byte, n+8)
	copy(start, base)
	for i := 0; i < p.periods; i++ {
		codes := p.codes[min(i, len(p.codes)-1)]
		for shard := 0; shard < p.shards; shard++ {
			start[len(base)] = byte(shard)
			if p.periodic {
				binary.BigEndian.PutUint32(start[len(base)+1:], encodePeriod(p.first+int64(i)))
			}
			copy(end, start[:n])
			for _, r := range codes {
				binary.BigEndian.PutUint64(start[n:], r.Min)
				if r.Max == ^uint64(0) {
					// No 8-byte code exceeds Max: end at the next prefix value.
					fn(start, nextPrefix(start[:n]))
					continue
				}
				binary.BigEndian.PutUint64(end[n:], r.Max+1)
				fn(start, end)
			}
		}
	}
}

// KeyRanges expands the plan under the key prefix base. Every key of
// the result is cut from one buffer.
func (p Plan) KeyRanges(base []byte) []kv.KeyRange {
	n := p.Len()
	out := make([]kv.KeyRange, 0, n)
	buf := make([]byte, 0, n*2*(len(base)+1+4+8))
	// keep copies b to the buffer; the capacity cap stops an append to
	// one key from running into the next.
	keep := func(b []byte) []byte {
		if b == nil {
			return nil
		}
		at := len(buf)
		buf = append(buf, b...)
		return buf[at:len(buf):len(buf)]
	}
	p.Each(base, func(start, end []byte) {
		out = append(out, kv.KeyRange{Start: keep(start), End: keep(end)})
	})
	return out
}

// KeysUnder returns the range of every key that starts with prefix.
func KeysUnder(prefix []byte) kv.KeyRange {
	return kv.KeyRange{Start: prefix, End: nextPrefix(prefix)}
}

// nextPrefix returns the smallest byte string greater than every string
// starting with p, or nil (open end) when p is all 0xFF.
func nextPrefix(p []byte) []byte {
	out := append([]byte(nil), p...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}

// shardOf hashes the record id to a stable shard byte.
func shardOf(fid []byte, shards int) byte {
	h := fnv.New32a()
	h.Write(fid)
	return byte(h.Sum32() % uint32(shards))
}

// periodOf implements Equ. (1): Num(t) = floor((t - RefTime) / PeriodLen)
// with RefTime = the Unix epoch; plen is PeriodLen in ms.
func periodOf(tms, plen int64) int64 {
	n := tms / plen
	if tms%plen < 0 {
		n-- // floor division for pre-epoch times
	}
	return n
}

// periodBias re-centers signed period numbers into uint32 space so that
// big-endian byte order matches numeric order even for pre-epoch data.
const periodBias = int64(1) << 31

func encodePeriod(n int64) uint32 { return uint32(n + periodBias) }

// fracInPeriod maps tms to its fraction within the period that starts at
// pstart, clamped to [0,1]. tms may be anywhere in int64 (an open-ended
// predicate arrives as a huge bound), so the difference is tested for
// wrap-around before it is used.
func fracInPeriod(tms, pstart, plen int64) float64 {
	if tms <= pstart {
		return 0
	}
	d := tms - pstart
	if d < 0 || d >= plen {
		return 1
	}
	return float64(d) / float64(plen)
}

// validateRecord checks the common preconditions.
func validateRecord(rec Record) error {
	if rec.Geom == nil {
		return ErrNeedGeom
	}
	if len(rec.FID) == 0 {
		return fmt.Errorf("index: record has no fid")
	}
	return nil
}
