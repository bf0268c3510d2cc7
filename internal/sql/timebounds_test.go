package sql

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"just/internal/exec"
	"just/internal/geom"
)

const dayMS = 24 * hourMS

// TestOpenAndInvertedTimePredicates runs one-sided and inverted time
// predicates through Session.Execute on every temporal index and
// compares them with a brute force over Table.FullScan. Before the
// planner cut query intervals to the table's time span, `time > x`
// enumerated periods up to 1<<62 ms (out of memory), `time < x`
// enumerated them from 1970 (and missed pre-epoch rows), and an
// inverted BETWEEN panicked on a negative period count.
func TestOpenAndInvertedTimePredicates(t *testing.T) {
	const window = "st_makeMBR(116.0, 39.0, 117.0, 40.0)"
	w := geom.NewMBR(116.0, 39.0, 117.0, 40.0)
	for _, indexes := range []string{"", "z2t", "z3", "z2,z3", "z3,z2t"} {
		// Eight days of rows: in 2017, and around the epoch.
		for _, base := range []int64{1_500_000_000_000, 0} {
			t.Run(fmt.Sprintf("indexes=%s/base=%d", indexes, base), func(t *testing.T) {
				s := newTestSession(t)
				ddl := `CREATE TABLE o (fid integer:primary key, time date, geom point)`
				if indexes != "" {
					ddl += ` USERDATA {'geomesa.indices.enabled':'` + indexes + `'}`
				}
				mustExec(t, s, ddl)
				var vals []string
				for i, off := range []int64{-3 * dayMS, 0, 7 * hourMS, dayMS + 1, 3 * dayMS, 5*dayMS - 1} {
					vals = append(vals, fmt.Sprintf("(%d, %d, st_makePoint(116.%d, 39.5))", i, base+off, i+1))
				}
				mustExec(t, s, "INSERT INTO o VALUES "+strings.Join(vals, ", "))
				tbl, err := s.engine.OpenTable("", "o")
				if err != nil {
					t.Fatal(err)
				}
				var all []exec.Row
				if err := tbl.FullScan(context.Background(), func(r exec.Row) bool { all = append(all, r); return true }); err != nil {
					t.Fatal(err)
				}
				// The periods (Equ. 1, one day long) the table has rows in.
				floorDay := func(ms int64) int64 { return (ms - ((ms%dayMS)+dayMS)%dayMS) / dayMS }
				span := tbl.TimeSpan()
				firstPeriod, lastPeriod := floorDay(span.Min), floorDay(span.Max)
				lo, hi := base+hourMS, base+4*dayMS
				for _, c := range []struct {
					where      string
					tmin, tmax *int64
				}{
					{fmt.Sprintf("time > %d", lo), &lo, nil},
					{fmt.Sprintf("time < %d", hi), nil, &hi},
					{fmt.Sprintf("time BETWEEN %d AND %d", hi, lo), &hi, &lo},
					{fmt.Sprintf("time BETWEEN %d AND %d", lo, hi), &lo, &hi},
				} {
					q := scanIndexQuery(&ScanPlan{Window: &w, TMin: c.tmin, TMax: c.tmax})
					path, err := tbl.PlanAccess(q)
					if err != nil {
						t.Fatal(err)
					}
					if path.Strategy == "attr" {
						t.Fatalf("%s: planned the attribute scan, want a temporal index", c.where)
					}
					for _, r := range path.Ranges {
						// [table u32][index u8][shard u8][period u32, biased by 1<<31]
						p := int64(binary.BigEndian.Uint32(r.Start[6:10])) - 1<<31
						if p < firstPeriod || p > lastPeriod {
							t.Fatalf("%s: period %d planned, the table spans %d..%d", c.where, p, firstPeriod, lastPeriod)
						}
					}
					if q.TMin > q.TMax && len(path.Ranges) != 0 {
						t.Errorf("%s: %d ranges planned for an empty interval", c.where, len(path.Ranges))
					}
					var want, got []int64
					for _, r := range all {
						if ts := r[1].(int64); ts >= q.TMin && ts <= q.TMax {
							want = append(want, r[0].(int64))
						}
					}
					res := mustExec(t, s, "SELECT fid FROM o WHERE geom WITHIN "+window+" AND "+c.where)
					for _, r := range res.Frame.Collect() {
						got = append(got, r[0].(int64))
					}
					sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
					sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s: fids %v, brute force %v", c.where, got, want)
					}
				}
			})
		}
	}
}

// TestOpenTimePredicateDuringInserts: a reader with a one-sided time
// predicate sees every row whose INSERT has returned, while a writer
// keeps extending the table's time span by a period per statement. The
// span is widened before a row becomes readable and read without a
// lock; run under -race.
func TestOpenTimePredicateDuringInserts(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, `CREATE TABLE o (fid integer:primary key, time date, geom point)`)
	base := int64(1_500_000_000_000)
	mustExec(t, s, fmt.Sprintf("INSERT INTO o VALUES (0, %d, st_makePoint(116.41, 39.9))", base))
	var done atomic.Int64 // INSERT statements that have returned
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		w := NewSession(s.engine, "")
		for i := int64(1); i <= 40; i++ {
			if _, err := w.Execute(fmt.Sprintf("INSERT INTO o VALUES (%d, %d, st_makePoint(116.41, 39.9))", i, base+i*dayMS)); err != nil {
				t.Error(err)
				return
			}
			done.Store(i)
		}
	}()
	query := fmt.Sprintf("SELECT fid FROM o WHERE geom WITHIN st_makeMBR(116.4, 39.8, 116.45, 40.0) AND time > %d", base-hourMS)
	for last := false; !last; {
		select {
		case <-finished:
			last = true // one more pass, over everything the writer got in
		default:
		}
		acked := done.Load()
		res, err := s.Execute(query)
		if err != nil {
			t.Fatal(err)
		}
		if n := int64(res.Frame.Count()); n < acked+1 {
			t.Fatalf("%d rows returned after %d inserts were acknowledged", n, acked+1)
		}
	}
}
