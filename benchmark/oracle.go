package main

// Brute-force oracle: every sampled reply is re-derived by a linear
// filter over the generated records.

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"just/internal/geom"
)

func num(v any) (float64, bool) {
	f, ok := v.(float64) // pkg/client decodes every JSON number as float64
	return f, ok
}

func (o order) matches(p param) bool {
	return p.win.Contains(geom.Point{Lng: o.lng, Lat: o.lat}) && o.t >= p.tmin && o.t <= p.tmax
}

// verify checks one reply against the oracle. rows are the JSON-decoded
// result rows in the statement's column order.
func (d *dataset) verify(w *workloadDef, p param, rows [][]any) error {
	switch w.stmt {
	case "order_agg":
		return d.verifyAgg(p, rows)
	case "order_knn":
		return d.verifyKNN(p, rows)
	case "traj_range":
		return d.verifyTraj(p, rows)
	default:
		return d.verifyST(p, rows)
	}
}

// verifyST: every returned row is a generated record that satisfies the
// predicate, no fid repeats, and every matching preloaded row is there.
// Rows inserted during order_rw (fid ≥ preload) are re-generated from
// the seed, so a returned one is held to the same predicate.
func (d *dataset) verifyST(p param, rows [][]any) error {
	got := make(map[int64]bool, len(rows))
	for _, r := range rows {
		if len(r) != 3 {
			return fmt.Errorf("malformed row %v", r)
		}
		f, ok := num(r[0])
		if !ok {
			return fmt.Errorf("malformed row %v", r)
		}
		fid := int64(f)
		if got[fid] {
			return fmt.Errorf("fid %d returned twice", fid)
		}
		got[fid] = true
		o := orderAt(d.seed, int(fid), d.preload)
		if t, _ := num(r[1]); !o.matches(p) || int64(t) != o.t {
			return fmt.Errorf("fid %d returned but does not match the predicate", fid)
		}
	}
	for _, o := range d.orders {
		if o.matches(p) && !got[o.fid] {
			return fmt.Errorf("fid %d matches but is missing (%d rows returned)", o.fid, len(rows))
		}
	}
	return nil
}

func (d *dataset) verifyAgg(p param, rows [][]any) error {
	type acc struct {
		n   int64
		sum float64
	}
	want := map[string]*acc{}
	for _, o := range d.orders {
		if o.matches(p) {
			a := want[o.district()]
			if a == nil {
				a = &acc{}
				want[o.district()] = a
			}
			a.n++
			a.sum += o.amount
		}
	}
	if len(rows) != len(want) {
		return fmt.Errorf("%d groups returned, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if len(r) != 3 {
			return fmt.Errorf("malformed group %v", r)
		}
		name, _ := r[0].(string)
		n, _ := num(r[1])
		sum, _ := num(r[2])
		a := want[name]
		if a == nil || int64(n) != a.n || math.Abs(sum-a.sum) > 1e-6*math.Max(1, a.sum) {
			return fmt.Errorf("group %q = (%v, %v), want %+v", name, r[1], r[2], a)
		}
		delete(want, name)
	}
	return nil
}

// maxHeap keeps the k smallest distances seen.
type maxHeap []float64

func (h maxHeap) Len() int           { return len(h) }
func (h maxHeap) Less(i, j int) bool { return h[i] > h[j] }
func (h maxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *maxHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func dist(p geom.Point, o order) float64 { return math.Hypot(o.lng-p.Lng, o.lat-p.Lat) }

// verifyKNN compares the distances of the returned fids with the exact
// k smallest distances; ties make the fid set ambiguous, the sorted
// distances are not.
func (d *dataset) verifyKNN(p param, rows [][]any) error {
	k := knnK
	if len(d.orders) < k {
		k = len(d.orders)
	}
	if len(rows) != k {
		return fmt.Errorf("%d neighbours returned, want %d", len(rows), k)
	}
	seen := map[int64]bool{}
	got := make([]float64, 0, k)
	for _, r := range rows {
		if len(r) == 0 {
			return fmt.Errorf("empty row among the neighbours")
		}
		f, ok := num(r[0])
		fid := int64(f)
		if !ok || fid < 0 || fid >= int64(len(d.orders)) || seen[fid] {
			return fmt.Errorf("bad or repeated fid in %v", r)
		}
		seen[fid] = true
		got = append(got, dist(p.pt, d.orders[fid]))
	}
	h := &maxHeap{}
	for _, o := range d.orders {
		dd := dist(p.pt, o)
		if h.Len() < k {
			heap.Push(h, dd)
		} else if dd < (*h)[0] {
			(*h)[0] = dd
			heap.Fix(h, 0)
		}
	}
	want := append([]float64(nil), *h...)
	sort.Float64s(want)
	sort.Float64s(got)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("neighbour %d at distance %g, exact answer %g", i, got[i], want[i])
		}
	}
	return nil
}

// verifyTraj: JustQL's BETWEEN on a plugin table's time column selects
// records whose [start_time, end_time] span meets the interval (the
// paper's ST range over trajectories), and WITHIN on the MBR column
// selects footprints that meet the window.
func (d *dataset) verifyTraj(p param, rows [][]any) error {
	got := make(map[string]bool, len(rows))
	for _, r := range rows {
		if len(r) != 7 {
			return fmt.Errorf("malformed row %v", r)
		}
		id, ok := r[0].(string)
		if !ok || got[id] {
			return fmt.Errorf("malformed or repeated row for %v", r[0])
		}
		got[id] = true
	}
	want := 0
	for _, t := range d.trajs {
		if t.mbr.Intersects(p.win) && t.start <= p.tmax && t.end >= p.tmin {
			want++
			if !got[t.id] {
				return fmt.Errorf("%s matches but is missing", t.id)
			}
		}
	}
	if want != len(rows) {
		return fmt.Errorf("%d trajectories returned, want %d", len(rows), want)
	}
	return nil
}
