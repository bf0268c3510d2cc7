package main

// The system under test: one engine opened as just-server opens it,
// behind the real HTTP handler on a loopback port, in this process.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"just/internal/core"
	"just/internal/jobs"
	"just/internal/kv"
	"just/internal/rpc"
	"just/internal/server"
	"just/internal/sql"
)

// The three departures from the just-server defaults: a block cache
// several times smaller than the Order data (and larger than the Traj
// data), a block codec that runs, and a memtable half the default size,
// so that order_rw's 10 s window sees several flush → compaction cycles
// however slow the host is that day. The sleep-based disk model stays
// off (DiskThroughputMBps = 0): it hides CPU changes behind timer
// jitter; IO volume is reported as counts. The WAL is on, fsync per
// group commit.
const (
	blockCacheBytes = 3 << 20
	blockCodec      = "lz4"
	memtableBytes   = 2 << 20
	tcpNodes        = 3
)

func storeOptions(sched *jobs.Scheduler) kv.Options {
	return kv.Options{Codec: blockCodec, BlockCacheBytes: blockCacheBytes, MemtableBytes: memtableBytes, Jobs: sched}
}

// system is one running deployment.
type system struct {
	dir  string
	eng  *core.Engine
	srv  *server.Server
	http *http.Server
	done chan error // http.Serve's return
	url  string

	// order_st_tcp only: the region servers behind the router.
	rpc     *rpc.Client
	peers   []string
	closers []func() error
	scheds  []*jobs.Scheduler // every maintenance scheduler in the deployment

	respBytes atomic.Int64 // HTTP response body bytes
	requests  atomic.Int64 // HTTP requests (statement + page fetches)
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return w.ResponseWriter.Write(p)
}

// openSystem starts a deployment rooted at dir: standalone (the
// in-process cluster, as `just-server` with no -role), or a router
// engine over tcpNodes region servers on loopback TCP sockets (as
// `just-server -role=router` over `-role=region` processes).
func openSystem(dir string, tcp bool) (_ *system, err error) {
	s := &system{dir: dir}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	cfg := core.Config{Dir: dir, ViewTTL: 30 * time.Minute}
	if tcp {
		s.rpc = rpc.NewClient(rpc.ClientOptions{})
		s.closers = append(s.closers, func() error { s.rpc.Close(); return nil })
		for i := 1; i <= tcpNodes; i++ {
			ndir := filepath.Join(dir, fmt.Sprintf("node%d", i))
			sched := jobs.New(jobs.Options{DiskPath: ndir})
			s.scheds = append(s.scheds, sched)
			s.closers = append(s.closers, sched.Close)
			node, err := kv.OpenRegionNode(ndir, kv.NodeOptions{
				Options: storeOptions(sched), NodeID: i, Transport: s.rpc,
			})
			if err != nil {
				return nil, err
			}
			s.closers = append(s.closers, node.Close)
			rs, err := rpc.Serve("127.0.0.1:0", node.Handler(), rpc.ServerOptions{})
			if err != nil {
				return nil, err
			}
			s.closers = append(s.closers, rs.Close)
			s.peers = append(s.peers, rs.Addr())
		}
		cfg.Dir = filepath.Join(dir, "router")
		cfg.Router = &kv.RouterOptions{Peers: s.peers, Transport: s.rpc, ProbeInterval: 2 * time.Second}
	} else {
		cfg.Cluster = kv.ClusterOptions{Options: storeOptions(nil)}
	}
	if s.eng, err = core.Open(cfg); err != nil {
		return nil, err
	}
	s.scheds = append(s.scheds, s.eng.Jobs())
	s.srv = server.New(s.eng, server.Options{PageSize: 1000, SlowQueryThreshold: time.Second})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	inner := s.srv.Handler()
	s.http = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		inner.ServeHTTP(countingWriter{w, &s.respBytes}, r)
	})}
	s.done = make(chan error, 1)
	go func() { s.done <- s.http.Serve(l) }()
	s.url = "http://" + l.Addr().String()
	return s, nil
}

// close tears the deployment down front to back and waits for the HTTP
// server goroutine.
func (s *system) close() error {
	var errs []error
	if s.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.http.Shutdown(ctx); err != nil {
			errs = append(errs, s.http.Close())
		}
		cancel()
		if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.http = nil
	}
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
	if s.eng != nil {
		errs = append(errs, s.eng.Close())
		s.eng = nil
	}
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	s.closers = nil
	return errors.Join(errs...)
}

// jobSeconds sums the busy time of one maintenance class over every
// scheduler of the deployment; jobsFailed sums failed runs of all.
func (s *system) jobSeconds(c jobs.Class) float64 {
	var ns int64
	for _, sc := range s.scheds {
		ns += sc.Metrics()[string(c)].DurationNanos
	}
	return float64(ns) / 1e9
}

func (s *system) jobsFailed() int64 {
	var n int64
	for _, sc := range s.scheds {
		for _, c := range sc.Metrics() {
			n += c.Failed
		}
	}
	return n
}

// setup is what one set-up cost.
type setup struct {
	seconds      float64 // open + create + BulkInsert + Flush + Compact
	loadSeconds  float64 // BulkInsert alone
	rows         int
	flushSeconds float64    // flush-class busy time
	compactSecs  float64    // compact-class busy time + the final Compact call
	kvAtEnd      kv.Metrics // the store's counters when set-up ended
	diskBytes    int64
	slowdown     float64 // of the host while it ran, by the pilot
}

// setUp builds a fresh deployment under root and loads d into it:
// create + BulkInsert + Flush + Compact, the whole of it timed.
func setUp(root string, w *workloadDef, d *dataset) (*system, setup, error) {
	rows, err := d.rows()
	if err != nil {
		return nil, setup{}, err
	}
	dir, err := os.MkdirTemp(root, w.name+"-")
	if err != nil {
		return nil, setup{}, err
	}
	pilot := startTickPilot()
	start := time.Now()
	s, err := openSystem(dir, w.tcp)
	if err != nil {
		pilot.stop()
		return nil, setup{}, err
	}
	ddl, tbl := createOrders, orderTable
	if w.traj {
		ddl, tbl = createTraj, trajTable
	}
	st := setup{rows: len(rows)}
	err = func() error {
		if _, err := sql.NewSession(s.eng, user).Execute(ddl); err != nil {
			return err
		}
		t := time.Now()
		if err := s.eng.BulkInsert(user, tbl, rows); err != nil {
			return err
		}
		st.loadSeconds = time.Since(t).Seconds()
		if err := s.eng.Flush(); err != nil {
			return err
		}
		t = time.Now()
		if err := s.eng.Store().Compact(); err != nil {
			return err
		}
		st.compactSecs = time.Since(t).Seconds() + s.jobSeconds(jobs.ClassCompact)
		return nil
	}()
	st.seconds = time.Since(start).Seconds()
	st.slowdown = slowdown(pilot.stop())
	if err != nil {
		s.close()
		return nil, setup{}, fmt.Errorf("set-up: %w", err)
	}
	st.flushSeconds = s.jobSeconds(jobs.ClassFlush)
	st.kvAtEnd = s.eng.Store().Metrics()
	st.diskBytes = s.eng.DiskSize()
	return s, st, nil
}
