package kv

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"just/internal/jobs"
)

// This file is the integrity half of the cluster: the scrubber that
// proactively verifies every SSTable block, and the admin view of it.
//
// Detection happens in the table layer (per-block CRC32C, see
// sstable.go): any read or scrub that hits a persistently damaged block
// gets an *ErrCorruptBlock and latches the region's corrupt flag. A
// Cluster keeps one copy of its region, so there is nothing to heal
// from: the damaged table stays in place — dropping it would turn
// detected corruption into silent data loss — the flag shows in
// ScrubState, and reads keep being served, the typed error surfacing
// wherever the damaged blocks are touched.

// Scrub verifies every data block of every SSTable (cache bypassed —
// the bytes are re-read from disk and checked against their CRCs) and
// returns the first corruption error the pass found, or nil.
//
// Concurrent Scrub calls — manual, admin-endpoint and periodic alike —
// join one in-flight pass through the scheduler's DoShared, each caller
// getting that pass's verdict. Under disk pressure the scrub class is
// shed and Scrub returns a typed ErrDiskPressure.
func (c *Cluster) Scrub(ctx context.Context) error {
	if c.closed.Load() {
		return ErrClosed
	}
	err := c.jobs.DoShared(ctx, jobs.ClassScrub, c.scrubKey, c.scrubPass)
	if errors.Is(err, jobs.ErrClosed) {
		return ErrClosed
	}
	return err
}

// scrubLoop runs a scrub pass every interval until Close.
func (c *Cluster) scrubLoop(interval time.Duration) {
	defer c.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			_ = c.Scrub(context.Background()) // the verdict lands in ScrubState and the metrics
		}
	}
}

// scrubPass is one full verification sweep; its error is the
// corruption verdict (or the cancellation that cut the pass short).
func (c *Cluster) scrubPass(ctx context.Context) error {
	c.scrubMu.Lock()
	defer c.scrubMu.Unlock()
	if c.closed.Load() {
		return ErrClosed
	}
	start := time.Now()
	c.scrubRunning.Store(true)
	c.scrubLastStart.Store(start.UnixMilli())
	defer func() {
		c.scrubLastDur.Store(time.Since(start).Milliseconds())
		c.scrubRunning.Store(false)
	}()

	blocks, err := c.r.verifyTables(ctx)
	atomic.AddInt64(&c.met.BlocksScrubbed, blocks)
	if ctx.Err() != nil {
		return ctx.Err() // pass canceled (shutdown)
	}
	c.r.noteCorruption(err)
	c.scrubLastBlocks.Store(blocks)
	atomic.AddInt64(&c.met.ScrubRuns, 1)
	return err
}

// RegionIntegrityState describes one region's store in ScrubStatus.
type RegionIntegrityState struct {
	Region  int  `json:"region"`
	Tables  int  `json:"tables"`
	Corrupt bool `json:"corrupt"`
}

// ScrubStatus is the admin view of the integrity subsystem: scrub
// progress, cumulative counters and the per-region corruption flags.
type ScrubStatus struct {
	Running             bool                   `json:"running"`
	Runs                int64                  `json:"runs"`
	LastStartUnixMs     int64                  `json:"last_start_unix_ms"`
	LastDurationMs      int64                  `json:"last_duration_ms"`
	LastBlocks          int64                  `json:"last_blocks"`
	BlocksScrubbed      int64                  `json:"blocks_scrubbed"`
	CorruptionsDetected int64                  `json:"corruptions_detected"`
	CorruptNodes        int64                  `json:"corrupt_nodes"`
	Nodes               []RegionIntegrityState `json:"nodes,omitempty"`
}

// ScrubState snapshots the integrity subsystem for the admin endpoints.
func (c *Cluster) ScrubState() ScrubStatus {
	st := ScrubStatus{
		Running:             c.scrubRunning.Load(),
		Runs:                atomic.LoadInt64(&c.met.ScrubRuns),
		LastStartUnixMs:     c.scrubLastStart.Load(),
		LastDurationMs:      c.scrubLastDur.Load(),
		LastBlocks:          c.scrubLastBlocks.Load(),
		BlocksScrubbed:      atomic.LoadInt64(&c.met.BlocksScrubbed),
		CorruptionsDetected: atomic.LoadInt64(&c.met.CorruptionsDetected),
	}
	c.r.mu.RLock()
	tables := len(c.r.tables)
	c.r.mu.RUnlock()
	corrupt := c.r.corrupt.Load()
	if corrupt {
		st.CorruptNodes = 1
	}
	st.Nodes = []RegionIntegrityState{{Region: c.r.id, Tables: tables, Corrupt: corrupt}}
	return st
}
