// Command just-server runs JUST as a PaaS: one shared engine behind the
// HTTP service layer, multi-user namespaces, streamed results
// (Section VII of the paper).
//
// Three process roles compose a deployment:
//
//	standalone  (default) the in-process single-copy store behind HTTP
//	region      one networked region server: an rpc endpoint hosting
//	            regions, shipping to replicas and splitting autonomously
//	router      the HTTP front end routing storage to region servers
//
// Usage:
//
//	just-server -dir /var/lib/just -addr :8045
//	just-server -role=region -dir /var/lib/just-r1 -rpc-addr :9045 -node-id 1
//	just-server -role=router -addr :8045 -peers host1:9045,host2:9045
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"just/internal/core"
	"just/internal/jobs"
	"just/internal/kv"
	"just/internal/rpc"
	"just/internal/server"
)

func main() {
	role := flag.String("role", "standalone", "process role: standalone, region or router")
	dir := flag.String("dir", "./just-data", "storage directory")
	addr := flag.String("addr", ":8045", "HTTP listen address (standalone/router)")
	pageSize := flag.Int("page-size", 1000, "rows per result transmission (the result stream is flushed every page-size rows)")
	viewTTL := flag.Duration("view-ttl", 30*time.Minute, "idle view eviction")
	replication := flag.Int("replication", 0, "replicas per region on distinct region servers (router role; 0 = off)")
	scrubInterval := flag.Duration("scrub-interval", 0, "background SSTable integrity scrub period (0 = off)")
	codec := flag.String("codec", "", "SSTable block / WAL envelope codec: none, gzip or lz4 (\"\" = none)")
	queryTimeout := flag.Duration("query-timeout", 0, "default per-query deadline (0 = none; X-JUST-Timeout may tighten it)")
	maxConcurrent := flag.Int("max-concurrent-queries", 0, "queries executing at once (0 = unlimited)")
	maxQueued := flag.Int("max-queued-queries", 0, "admission wait-queue depth (0 = 2x max-concurrent-queries)")
	queryMemBudget := flag.Int64("query-mem-budget", 0, "per-query memory budget in bytes (0 = unlimited)")
	maxBodyBytes := flag.Int64("max-body-bytes", 0, "request body cap for /api/v1/sql (0 = 1 MiB)")
	slowQuery := flag.Duration("slow-query", time.Second, "slow-query log threshold")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain deadline")

	// Networked-cluster topology flags.
	rpcAddr := flag.String("rpc-addr", ":9045", "region server rpc listen address (region role)")
	nodeID := flag.Int("node-id", 1, "region server node id, unique per cluster (region role)")
	peers := flag.String("peers", "", "comma-separated region server addresses (router role)")
	splitBytes := flag.Int64("split-bytes", 256<<20, "region size split threshold in bytes (region role; 0 = off)")
	rebalanceInterval := flag.Duration("rebalance-interval", 0, "router rebalance / cold-merge period (0 = off)")
	mergeBytes := flag.Int64("merge-bytes", 0, "merge adjacent regions below this size (router role; 0 = off)")

	// Resilience knobs (router role).
	breakerFailures := flag.Int("breaker-failures", 0, "consecutive transport failures before a peer's circuit breaker opens (0 = default 3)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "background peer health probe period; also the open-breaker retry interval (0 = prober off)")
	hedgeAfter := flag.Duration("hedge-after", 0, "hedge idempotent reads to a replica after this delay (0 = hedging off)")
	retryBackoff := flag.Duration("retry-backoff", 0, "base retry backoff between routing attempts (0 = default 5ms)")
	retryBackoffMax := flag.Duration("retry-backoff-max", 0, "retry backoff cap (0 = default 500ms)")

	jobOptions := jobFlags(flag.CommandLine)
	flag.Parse()
	jobOpts := jobOptions()

	switch *role {
	case "region":
		runRegion(*dir, *rpcAddr, *nodeID, *codec, *splitBytes, jobOpts)
		return
	case "standalone":
		if *replication > 0 {
			log.Fatalf("just-server: -replication needs region servers to place replicas on; run them with -role=region and route with -role=router -peers ... -replication %d", *replication)
		}
	case "router":
	default:
		log.Fatalf("just-server: unknown -role=%s (want standalone, region or router)", *role)
	}

	cfg := core.Config{
		Dir:     *dir,
		ViewTTL: *viewTTL,
		Jobs:    jobOpts,
		Cluster: kv.ClusterOptions{
			Options:       kv.Options{Codec: *codec},
			ScrubInterval: *scrubInterval,
		},
	}
	if *role == "router" {
		if *peers == "" {
			log.Fatal("just-server: -role=router requires -peers")
		}
		cfg.Router = &kv.RouterOptions{
			Peers:             strings.Split(*peers, ","),
			Replicas:          *replication,
			RebalanceInterval: *rebalanceInterval,
			MergeBytes:        *mergeBytes,
			BreakerFailures:   *breakerFailures,
			ProbeInterval:     *probeInterval,
			HedgeAfter:        *hedgeAfter,
			RetryBackoff:      *retryBackoff,
			RetryBackoffMax:   *retryBackoffMax,
		}
	}
	eng, err := core.Open(cfg)
	if err != nil {
		log.Fatalf("just-server: open engine: %v", err)
	}

	srv := server.New(eng, server.Options{
		PageSize:             *pageSize,
		QueryTimeout:         *queryTimeout,
		MaxConcurrentQueries: *maxConcurrent,
		MaxQueuedQueries:     *maxQueued,
		QueryMemBudget:       *queryMemBudget,
		MaxBodyBytes:         *maxBodyBytes,
		SlowQueryThreshold:   *slowQuery,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// SIGINT/SIGTERM starts a graceful shutdown: stop accepting, drain
	// in-flight requests up to the drain deadline (in-flight queries see
	// their request contexts cancel when the deadline passes), then tear
	// down the service layer and the engine in order.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("just-server: %s serving %s on %s", *role, *dir, *addr)

	select {
	case err := <-errc:
		eng.Close()
		log.Fatalf("just-server: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("just-server: shutting down (drain deadline %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("just-server: drain incomplete: %v", err)
		httpSrv.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("just-server: serve: %v", err)
	}
	srv.Close()
	if err := eng.Close(); err != nil {
		log.Printf("just-server: close engine: %v", err)
	}
	log.Printf("just-server: shutdown complete")
}

// jobFlags registers the maintenance scheduler knobs (all roles) on fs;
// the function it returns reads them once fs is parsed.
func jobFlags(fs *flag.FlagSet) func() jobs.Options {
	compact := fs.Int("job-compact-concurrency", 0, "concurrent compactions across all regions (0 = default 2)")
	diskLow := fs.Int64("job-disk-low", 0, "free-space threshold in bytes below which all maintenance but flush is shed and writes degrade (0 = watchdog off)")
	diskCheck := fs.Duration("job-disk-check", 0, "disk-pressure watchdog probe period (0 = default 2s)")
	return func() jobs.Options {
		return jobs.Options{CompactConcurrency: *compact, DiskFreeLow: *diskLow, DiskCheckInterval: *diskCheck}
	}
}

// runRegion hosts one networked region server until SIGINT/SIGTERM.
func runRegion(dir, rpcAddr string, nodeID int, codec string, splitBytes int64, jobOpts jobs.Options) {
	// One maintenance scheduler per region-server process: every region
	// the node hosts (including ones created by splits) flushes and
	// compacts through it, so the -job-* caps and the disk-pressure
	// watchdog are node-wide.
	if jobOpts.DiskPath == "" {
		jobOpts.DiskPath = dir
	}
	sched := jobs.New(jobOpts)
	defer sched.Close()
	node, err := kv.OpenRegionNode(dir, kv.NodeOptions{
		Options:    kv.Options{Codec: codec, Jobs: sched},
		NodeID:     nodeID,
		SplitBytes: splitBytes,
		Transport:  rpc.NewClient(rpc.ClientOptions{}),
	})
	if err != nil {
		log.Fatalf("just-server: open region node: %v", err)
	}
	rpcSrv, err := rpc.Serve(rpcAddr, node.Handler(), rpc.ServerOptions{})
	if err != nil {
		node.Close()
		log.Fatalf("just-server: rpc listen: %v", err)
	}
	log.Printf("just-server: region node %d serving %s on %s", nodeID, dir, rpcSrv.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	log.Printf("just-server: region node shutting down")
	rpcSrv.Close()
	if err := node.Close(); err != nil {
		log.Printf("just-server: close region node: %v", err)
	}
	log.Printf("just-server: shutdown complete")
}
