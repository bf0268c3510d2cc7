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
// The call enqueues through the maintenance scheduler's scrub job:
// concurrent Scrub calls — manual, admin-endpoint and periodic alike —
// dedupe onto one in-flight pass, each caller getting that pass's
// result. Under disk pressure the scrub class is shed and Scrub returns
// a typed ErrDiskPressure.
func (c *Cluster) Scrub(ctx context.Context) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if err := c.jobs.RunNow(ctx, c.scrubJob); err != nil {
		if errors.Is(err, jobs.ErrClosed) || errors.Is(err, jobs.ErrUnknownJob) {
			return ErrClosed
		}
		return err
	}
	c.scrubMu.Lock()
	defer c.scrubMu.Unlock()
	return c.scrubLastErr
}

// scrubPass is one full verification sweep; it runs only inside the
// registered scrub job. Corruption found in a region is a detection,
// not a job failure — it is recorded in scrubLastErr for Scrub's
// callers, while the job itself succeeds so the scrub class is not
// driven into quarantine by damage it is doing its job finding.
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
		return ErrClosed // pass canceled (shutdown)
	}
	c.r.noteCorruption(err)
	c.scrubLastBlocks.Store(blocks)
	c.scrubLastErr = err
	atomic.AddInt64(&c.met.ScrubRuns, 1)
	return nil
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
