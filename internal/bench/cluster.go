package bench

import (
	"fmt"
	"path/filepath"

	"just/internal/core"
	"just/internal/kv"
	"just/internal/rpc"
	"just/internal/workload"
)

// RunCluster reports the networked-deployment dimension: the same Order
// workload served by the in-process store (standalone), by
// region servers behind the router over the in-process loopback
// transport, and by region servers behind the router over real TCP
// sockets. The loopback/TCP delta prices the wire protocol (framing,
// CRC, kernel round trips); the standalone/loopback delta prices the
// routing layer itself.
func (r *Runner) RunCluster() error {
	ds := orderSet(r.Orders())
	for _, mode := range []string{"standalone", "loopback", "tcp"} {
		e, cleanup, err := r.openClusterMode(mode)
		if err != nil {
			return err
		}
		err = r.measure(mode, "JUST", "ingest", justMeter(e), 1, func(int) (int, error) {
			return len(ds.recs), ds.load(e, variantJUST)
		})
		if err == nil {
			err = r.queryRow(mode, ds.tbl, []namedEngine{{"JUST", e}}, nil, r.stQuery(53, 3, 53, workload.Day))
		}
		if err == nil {
			r.value(mode, "JUST", "regions", float64(e.Store().Regions()))
			r.value(mode, "JUST", "rpc_out_mib", mib(e.Store().Metrics().RPCBytesOut))
		}
		cleanup()
		if err != nil {
			return err
		}
	}
	return nil
}

// openClusterMode opens an engine in the given deployment mode. The
// returned cleanup closes the engine and, for routed modes, the region
// servers behind it.
func (r *Runner) openClusterMode(mode string) (*core.Engine, func(), error) {
	dir, err := r.scratch("cluster-" + mode)
	if err != nil {
		return nil, nil, err
	}
	opts := storeOptions("")
	if mode == "standalone" {
		e, err := core.Open(core.Config{Dir: dir, Cluster: kv.ClusterOptions{Options: opts}})
		if err != nil {
			return nil, nil, err
		}
		return e, func() { e.Close() }, nil
	}

	const n = 3
	peers := make([]string, n)
	var tr kv.Transport
	var closers []func()
	cleanup := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	var lb *kv.Loopback
	var cl *rpc.Client
	if mode == "tcp" {
		cl = rpc.NewClient(rpc.ClientOptions{})
		tr = cl
	} else {
		lb = kv.NewLoopback()
		tr = lb
	}
	for i := 0; i < n; i++ {
		node, err := kv.OpenRegionNode(filepath.Join(dir, fmt.Sprintf("node%d", i+1)), kv.NodeOptions{
			Options:   opts,
			NodeID:    i + 1,
			Transport: tr,
		})
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		closers = append(closers, func() { node.Close() })
		if mode == "tcp" {
			srv, err := rpc.Serve("127.0.0.1:0", node.Handler(), rpc.ServerOptions{})
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			closers = append(closers, func() { srv.Close() })
			peers[i] = srv.Addr()
		} else {
			peers[i] = fmt.Sprintf("s%d", i+1)
			lb.Register(peers[i], node.Handler())
		}
	}
	// Loopback routing shares the fabric; TCP routing lets the router
	// build its own pooled client (as `just-server -role=router` does),
	// which also feeds the rpc byte counters in its metrics.
	var rtr kv.Transport
	if mode != "tcp" {
		rtr = tr
	}
	e, err := core.Open(core.Config{
		Dir:    filepath.Join(dir, "router"),
		Router: &kv.RouterOptions{Peers: peers, Transport: rtr},
	})
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	closers = append(closers, func() { e.Close() })
	return e, cleanup, nil
}
