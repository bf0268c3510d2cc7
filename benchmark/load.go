package main

// Closed-loop load: each client sends its next statement when the
// previous reply has been read to its last row.

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"just/pkg/client"
)

const (
	// clients is fixed, not derived from the host: the numbers are
	// comparable only at one concurrency. It equals the sandbox's nproc.
	clients = 2
	// checkEvery selects the replies kept for the oracle.
	checkEvery = 50
	// warmParams offsets warm-up parameter sets away from the timed ones,
	// so the window does not start on its own cached blocks.
	warmParams = 1 << 24
)

// reply is one sampled result kept for verification after the window.
type reply struct {
	param int
	rows  [][]any
}

// tally is what one client saw.
type tally struct {
	readMS, writeMS []float64 // latency per statement
	rowsReturned    int64
	rowsInserted    int64 // acknowledged
	batches         int   // INSERT statements acknowledged
	failed          int
	firstErr        error
	samples         []reply
	pilotUS         []float64 // pilot durations sampled between statements
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// query runs one read statement to its last row.
func query(c *client.Client, stmt string, keep bool) (n int64, rows [][]any, err error) {
	rs, err := c.ExecuteQuery(stmt)
	if err != nil {
		return 0, nil, err
	}
	defer rs.Close()
	for rs.HasNext() {
		row, err := rs.Next()
		if err != nil {
			return n, nil, err
		}
		n++
		if keep {
			rows = append(rows, row)
		}
	}
	return n, rows, rs.Err()
}

// reader sends parameter sets first, first+stride, … until the deadline.
func reader(url string, w *workloadDef, d *dataset, first, stride int, deadline time.Time, t *tally) {
	c := client.Connect(url, user)
	pilot := clientPilot{last: time.Now()}
	defer func() { t.pilotUS = pilot.us }()
	for i := first; time.Now().Before(deadline); i += stride {
		pilot.maybe()
		stmt := statement(w.stmt, d.paramAt(w.stmt, i))
		keep := (i/stride)%checkEvery == 0
		start := time.Now()
		n, rows, err := query(c, stmt, keep)
		t.readMS = append(t.readMS, float64(time.Since(start).Nanoseconds())/1e6)
		if err != nil {
			t.fail(fmt.Errorf("statement %d: %w", i, err))
			continue
		}
		t.rowsReturned += n
		if keep {
			t.samples = append(t.samples, reply{param: i, rows: rows})
		}
	}
}

// writer sends INSERT batches firstBatch, firstBatch+1, … back to back.
func writer(url string, d *dataset, firstBatch int, deadline time.Time, t *tally) {
	c := client.Connect(url, user)
	pilot := clientPilot{last: time.Now()}
	defer func() { t.pilotUS = pilot.us }()
	for b := firstBatch; time.Now().Before(deadline); b++ {
		pilot.maybe()
		stmt := d.insertStatement(b)
		start := time.Now()
		_, _, err := query(c, stmt, false)
		t.writeMS = append(t.writeMS, float64(time.Since(start).Nanoseconds())/1e6)
		if err != nil {
			t.fail(fmt.Errorf("insert batch %d: %w", b, err))
			return // later batches would leave a hole in the fid sequence
		}
		t.batches++
		t.rowsInserted += insertBatch
	}
}

// drive runs the workload's clients for dur and merges their tallies.
// On order_rw client 0 writes and client 1 reads; elsewhere all read.
func drive(url string, w *workloadDef, d *dataset, paramBase, batchBase int, dur time.Duration) (tally, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	ts := make([]tally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			switch {
			case w.writes && c == 0:
				writer(url, d, batchBase, deadline, &ts[c])
			case w.writes:
				reader(url, w, d, paramBase, 1, deadline, &ts[c])
			default:
				reader(url, w, d, paramBase+c, clients, deadline, &ts[c])
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all tally
	for _, t := range ts {
		all.readMS = append(all.readMS, t.readMS...)
		all.writeMS = append(all.writeMS, t.writeMS...)
		all.rowsReturned += t.rowsReturned
		all.rowsInserted += t.rowsInserted
		all.batches += t.batches
		all.failed += t.failed
		all.samples = append(all.samples, t.samples...)
		all.pilotUS = append(all.pilotUS, t.pilotUS...)
		if all.firstErr == nil {
			all.firstErr = t.firstErr
		}
	}
	sort.Float64s(all.readMS)
	sort.Float64s(all.writeMS)
	return all, elapsed
}

// percentile reads quantile q off an ascending sample by the nearest-
// rank rule; NaN for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// supported reports whether a sample of n carries quantile q: a tail
// percentile needs at least ten samples beyond it.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}
