package main

// Frozen inputs. Everything the engine is fed — rows, query parameters,
// statement text — is generated here from -seed by a private PRNG, so
// edits to internal/workload or to math/rand cannot move the benchmark.
// The city layout (extent, hotspots, district grid) is a constant of the
// benchmark; the seed draws the records and the queries over it, which
// keeps result sizes comparable from seed to seed.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"just/internal/exec"
	"just/internal/geom"
	"just/internal/table"
)

const (
	user       = "bench"
	orderTable = "orders"
	trajTable  = "traj"

	hourMS = int64(3600 * 1000)
	dayMS  = 24 * hourMS
	// baseMS is 2019-10-01T00:00:00Z: day 0 of both datasets.
	baseMS = int64(1569888000000)

	orderDays = 60
	trajDays  = 30
	knnK      = 50
	// insertBatch is the rows per INSERT statement on order_rw.
	insertBatch = 500
	// insertStepMS spaces the timestamps of rows inserted during
	// order_rw. They start at day orderDays, after every preloaded row,
	// so the read windows (centred on preloaded rows) keep returning the
	// same rows while the table grows under them.
	insertStepMS = 50

	// Full-scale sizes; runConfig.scale (1 outside the tests) multiplies them.
	fullOrders = 100000
	fullTrajs  = 400
	trajPoints = 300
)

// extent is the metro area both datasets live in (Beijing-ish, the
// extent internal/workload uses).
var extent = geom.MBR{MinLng: 116.10, MinLat: 39.70, MaxLng: 116.70, MaxLat: 40.10}

// District grid: 16 × 13 = 208 cells of about 3.2 × 3.4 km.
const (
	districtCols = 16
	districtRows = 13
)

// rng is splitmix64: tiny, seedable from any 64-bit value, and owned by
// the benchmark.
type rng struct{ s uint64 }

// Streams keep the PRNG sequences of different generators apart.
const (
	streamLayout = iota + 1
	streamOrder
	streamTraj
	streamParam
)

// newRNG derives an independent generator for item i of a stream.
func newRNG(seed int64, stream, i int) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(stream)<<56 ^ uint64(i)}
	r.next() // decorrelate neighbouring indexes
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
func (r *rng) norm() float64 {
	u := 1 - r.float() // (0,1]
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*r.float())
}

// fix rounds v to the given decimals by a print/parse round trip, so a
// value and its rendering in a statement are the same float on both the
// engine's side and the oracle's.
func fix(v float64, decimals int) float64 {
	f, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', decimals, 64), 64)
	return f
}

func ftoa(v float64, decimals int) string { return strconv.FormatFloat(v, 'f', decimals, 64) }

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }

type hotspot struct{ lng, lat, sigma float64 }

// hotspots is the fixed urban layout: 20 Gaussian centres.
var hotspots = func() []hotspot {
	r := newRNG(20200420, streamLayout, 0)
	hs := make([]hotspot, 20)
	for i := range hs {
		hs[i] = hotspot{
			lng:   extent.MinLng + (0.1+0.8*r.float())*extent.Width(),
			lat:   extent.MinLat + (0.1+0.8*r.float())*extent.Height(),
			sigma: 0.008 + 0.017*r.float(),
		}
	}
	return hs
}()

// order is one Order record. It holds no pointer, so the oracle's copy
// of the dataset costs the garbage collector nothing to scan while the
// engine is being measured.
type order struct {
	fid      int64
	t        int64
	lng, lat float64
	cell     uint16 // district grid cell
	amount   float64
}

func cellOf(lng, lat float64) uint16 {
	c := int((lng - extent.MinLng) / extent.Width() * districtCols)
	r := int((lat - extent.MinLat) / extent.Height() * districtRows)
	c = min(max(c, 0), districtCols-1)
	r = min(max(r, 0), districtRows-1)
	return uint16(r*districtCols + c)
}

func (o order) district() string { return fmt.Sprintf("d%03d", o.cell) }

// orderAt generates record i of a seed's Order stream. Records below
// preload carry times in the 60 preloaded days (evening peak); records
// from preload on are the rows order_rw inserts, with rising timestamps
// after day 60.
func orderAt(seed int64, i, preload int) order {
	r := newRNG(seed, streamOrder, i)
	h := hotspots[r.intn(len(hotspots))]
	o := order{fid: int64(i)}
	o.lng = fix(clamp(h.lng+r.norm()*h.sigma, extent.MinLng, extent.MaxLng), 6)
	o.lat = fix(clamp(h.lat+r.norm()*h.sigma, extent.MinLat, extent.MaxLat), 6)
	day := int64(r.intn(orderDays))
	hour := math.Mod(20+r.norm()*4+48, 24)
	o.t = baseMS + day*dayMS + int64(hour*float64(hourMS))
	o.cell = cellOf(o.lng, o.lat)
	o.amount = fix(5+80*-math.Log(1-r.float()), 2)
	if i >= preload {
		o.t = baseMS + orderDays*dayMS + int64(i-preload)*insertStepMS
	}
	return o
}

func (o order) row() exec.Row {
	return exec.Row{o.fid, o.t, geom.Point{Lng: o.lng, Lat: o.lat}, o.district(), o.amount}
}

const createOrders = "CREATE TABLE " + orderTable +
	" (fid integer:primary key, time date, geom point:srid=4326, district string, amount double)"

const createTraj = "CREATE TABLE " + trajTable + " AS trajectory"

// trajAt generates trajectory i: a random walk of 270–329 fixes, one
// every 10–20 s at 5–11 m/s, with occasional heading changes.
func trajAt(seed int64, i int) *table.Trajectory {
	r := newRNG(seed, streamTraj, i)
	n := trajPoints*9/10 + r.intn(trajPoints/5)
	lng := extent.MinLng + (0.05+0.9*r.float())*extent.Width()
	lat := extent.MinLat + (0.05+0.9*r.float())*extent.Height()
	t := baseMS + int64(r.float()*float64(trajDays*dayMS))
	heading := r.float() * 2 * math.Pi
	speed := 5 + 6*r.float()
	pts := make([]geom.TPoint, n)
	for j := range pts {
		pts[j] = geom.TPoint{Point: geom.Point{Lng: lng, Lat: lat}, T: t}
		dt := 10 + 10*r.float()
		t += int64(dt * 1000)
		if r.intn(10) == 0 {
			heading += (r.float() - 0.5) * math.Pi
		}
		d := speed * dt
		lng = clamp(lng+d*math.Cos(heading)/(111320*math.Cos(lat*math.Pi/180)), extent.MinLng, extent.MaxLng)
		lat = clamp(lat+d*math.Sin(heading)/110540, extent.MinLat, extent.MaxLat)
	}
	return &table.Trajectory{ID: fmt.Sprintf("traj-%06d", i), Points: pts}
}

// traj is the oracle's view of one trajectory.
type traj struct {
	id         string
	mbr        geom.MBR
	start, end int64
	points     []geom.TPoint
}

// dataset is the generated input of one run.
type dataset struct {
	seed    int64
	preload int     // Order rows loaded at set-up
	orders  []order // the preloaded rows, by fid
	trajs   []traj
}

func genOrders(seed int64, n int) *dataset {
	d := &dataset{seed: seed, preload: n, orders: make([]order, n)}
	for i := range d.orders {
		d.orders[i] = orderAt(seed, i, n)
	}
	return d
}

func genTrajs(seed int64, n int) *dataset {
	d := &dataset{seed: seed, trajs: make([]traj, n)}
	for i := range d.trajs {
		t := trajAt(seed, i)
		d.trajs[i] = traj{
			id: t.ID, mbr: t.MBR(), points: t.Points,
			start: t.Points[0].T, end: t.Points[len(t.Points)-1].T,
		}
	}
	return d
}

// rows renders the set-up rows for BulkInsert.
func (d *dataset) rows() ([]exec.Row, error) {
	if d.trajs != nil {
		out := make([]exec.Row, len(d.trajs))
		for i, t := range d.trajs {
			row, err := (&table.Trajectory{ID: t.id, Points: t.points}).Row()
			if err != nil {
				return nil, err
			}
			out[i] = row
		}
		return out, nil
	}
	out := make([]exec.Row, len(d.orders))
	for i, o := range d.orders {
		out[i] = o.row()
	}
	return out, nil
}

// param is one statement's parameter set, already rounded to what the
// statement text says.
type param struct {
	win        geom.MBR   // range workloads
	tmin, tmax int64      // inclusive, ms
	pt         geom.Point // order_knn
}

// window is a w × w km square around a point, in degrees.
func window(lng, lat, km float64) geom.MBR {
	dLat := km / 2 / 110.54
	dLng := km / 2 / (111.32 * math.Cos(lat*math.Pi/180))
	return geom.MBR{
		MinLng: fix(lng-dLng, 6), MinLat: fix(lat-dLat, 6),
		MaxLng: fix(lng+dLng, 6), MaxLat: fix(lat+dLat, 6),
	}
}

// Query shapes. Windows are centred near a stored record: uniform
// windows over the extent are mostly empty, which makes the median
// bimodal.
const (
	stKM, stSpan     = 3.0, dayMS
	aggKM, aggSpan   = 10.0, 7 * dayMS
	trajKM, trajSpan = 3.0, 10 * dayMS
)

// paramAt generates parameter set i of a read workload.
func (d *dataset) paramAt(kind string, i int) param {
	r := newRNG(d.seed, streamParam, i)
	if kind == "traj_range" {
		t := d.trajs[r.intn(len(d.trajs))]
		p := t.points[r.intn(len(t.points))]
		return param{win: window(p.Lng, p.Lat, trajKM), tmin: p.T - trajSpan/2, tmax: p.T + trajSpan/2}
	}
	o := d.orders[r.intn(len(d.orders))]
	// Off-centre by up to ~500 m and ±6 h, so the sampled record is not
	// always the window's middle.
	lng := o.lng + (r.float()-0.5)*0.012
	lat := o.lat + (r.float()-0.5)*0.009
	t := o.t + int64((r.float()-0.5)*12*float64(hourMS))
	switch kind {
	case "order_agg":
		return param{win: window(lng, lat, aggKM), tmin: t - aggSpan/2, tmax: t + aggSpan/2}
	case "order_knn":
		return param{pt: geom.Point{Lng: fix(lng, 6), Lat: fix(lat, 6)}}
	default: // order_st, and the read side of order_rw and order_st_tcp
		return param{win: window(lng, lat, stKM), tmin: t - stSpan/2, tmax: t + stSpan/2}
	}
}

func mbrArgs(m geom.MBR) string {
	return ftoa(m.MinLng, 6) + ", " + ftoa(m.MinLat, 6) + ", " + ftoa(m.MaxLng, 6) + ", " + ftoa(m.MaxLat, 6)
}

// statement renders the JustQL text of a read workload's parameter set.
func statement(kind string, p param) string {
	switch kind {
	case "order_agg":
		return fmt.Sprintf("SELECT district, count(*) AS n, sum(amount) AS total FROM %s WHERE geom WITHIN st_makeMBR(%s) AND time BETWEEN %d AND %d GROUP BY district",
			orderTable, mbrArgs(p.win), p.tmin, p.tmax)
	case "order_knn":
		return fmt.Sprintf("SELECT fid, time, geom FROM %s WHERE geom IN st_KNN(st_makePoint(%s, %s), %d)",
			orderTable, ftoa(p.pt.Lng, 6), ftoa(p.pt.Lat, 6), knnK)
	case "traj_range":
		return fmt.Sprintf("SELECT * FROM %s WHERE mbr WITHIN st_makeMBR(%s) AND start_time BETWEEN %d AND %d",
			trajTable, mbrArgs(p.win), p.tmin, p.tmax)
	default:
		return fmt.Sprintf("SELECT fid, time, geom FROM %s WHERE geom WITHIN st_makeMBR(%s) AND time BETWEEN %d AND %d",
			orderTable, mbrArgs(p.win), p.tmin, p.tmax)
	}
}

// insertStatement renders batch b of the order_rw write stream: rows
// preload+b*insertBatch … of the seed's Order stream.
func (d *dataset) insertStatement(b int) string {
	var sb strings.Builder
	sb.Grow(insertBatch * 72)
	sb.WriteString("INSERT INTO " + orderTable + " VALUES ")
	for j := 0; j < insertBatch; j++ {
		o := orderAt(d.seed, d.preload+b*insertBatch+j, d.preload)
		if j > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, st_makePoint(%s, %s), '%s', %s)",
			o.fid, o.t, ftoa(o.lng, 6), ftoa(o.lat, 6), o.district(), ftoa(o.amount, 2))
	}
	return sb.String()
}

// streamHash digests the first n statements a workload would send; the
// freeze test pins it per seed.
func (d *dataset) streamHash(kind string, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		fmt.Fprintln(h, statement(kind, d.paramAt(kind, i)))
	}
	if d.orders != nil {
		fmt.Fprintln(h, d.insertStatement(0))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
