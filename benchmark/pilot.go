package main

// The pilot: a fixed piece of work timed beside the load, so that a
// host running slow can be told from a system running slow.
//
// This sandbox is a small VM on a shared host. Cache-resident code runs
// at a steady speed on it (±4 %), but code that allocates and walks
// memory — which is what a statement does — runs in two modes up to
// 1.75× apart that last seconds to minutes, whatever the program: the
// neighbours' memory traffic. Ten back-to-back runs of one workload
// spread by 15–50 % in every wall-clock metric for that reason alone,
// and no bound the contract allows holds against it. The pilot is the
// same kind of work (decode and re-encode a fixed JSON document:
// allocation, pointer chasing, a little arithmetic), uses nothing of
// this repository, and takes about 100 µs. Dividing a run's times by
// how much slower than that the pilot ran during them takes the host's
// mode out: the spread falls to a few per cent (README, "Host speed").

import (
	"encoding/json"
	"fmt"
	"time"
)

const (
	// pilotRefUS is the pilot's duration on this sandbox when the host
	// is quiet. Wall-clock metrics are reported as at that host speed.
	pilotRefUS = 100.0
	// A client times the pilot between two statements when this long has
	// passed since it last did: 1–2 % of its time.
	pilotEvery = 10 * time.Millisecond
	// During set-up, which no client loop runs, a goroutine of its own
	// times it at this interval.
	pilotTick = 5 * time.Millisecond
)

var pilotDoc = func() []byte {
	m := map[string]any{}
	for i := 0; i < 40; i++ {
		m[fmt.Sprintf("key%03d", i)] = []any{float64(i) * 1.5, fmt.Sprintf("value-%d", i), map[string]any{"a": float64(i), "b": "xyz"}}
	}
	b, _ := json.Marshal(m)
	return b
}()

// pilotOnce runs the pilot and returns its duration in µs.
func pilotOnce() float64 {
	t := time.Now()
	var v map[string]any
	json.Unmarshal(pilotDoc, &v)
	json.Marshal(v)
	return float64(time.Since(t).Nanoseconds()) / 1e3
}

// pilotLevel condenses pilot samples taken evenly over a stretch of
// time into one duration: their harmonic mean. Work done over the
// stretch is proportional to the time average of the host's speed, and
// speed is the reciprocal of the pilot's duration; a sample that a
// garbage-collection cycle or a preemption stretched adds next to
// nothing to a mean of reciprocals.
func pilotLevel(us []float64) float64 {
	var inv float64
	for _, v := range us {
		inv += 1 / v
	}
	return float64(len(us)) / inv
}

// slowdown is how many times slower than pilotRefUS the pilot ran.
// Times are divided by it and rates multiplied.
func slowdown(us []float64) float64 { return pilotLevel(us) / pilotRefUS }

// clientPilot samples the pilot from inside a client loop.
type clientPilot struct {
	last time.Time
	us   []float64
}

func (p *clientPilot) maybe() {
	if time.Since(p.last) >= pilotEvery {
		p.us = append(p.us, pilotOnce())
		p.last = time.Now()
	}
}

// tickPilot samples the pilot from a goroutine of its own, from start
// until stop.
type tickPilot struct {
	quit, done chan struct{}
	us         []float64
}

func startTickPilot() *tickPilot {
	p := &tickPilot{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(pilotTick)
		defer tick.Stop()
		for {
			p.us = append(p.us, pilotOnce())
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *tickPilot) stop() []float64 {
	close(p.quit)
	<-p.done
	return p.us
}
