package kv

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"just/internal/rpc"
)

// benchCluster builds a 3-node router-fronted cluster either on the
// in-process loopback fabric or on real TCP sockets, so the benchmarks
// report the wire protocol's cost relative to the same code path with
// the network removed.
func benchCluster(b *testing.B, tcp bool) *Router {
	return benchClusterOpts(b, tcp, RouterOptions{}, nil)
}

// benchClusterOpts is benchCluster with router knobs and an optional
// transport wrapper (fault injection), applied once the peer addresses
// are known.
func benchClusterOpts(b *testing.B, tcp bool, ropts RouterOptions, wrap func(peers []string, tr Transport) Transport) *Router {
	b.Helper()
	const n = 3
	peers := make([]string, n)
	var tr Transport
	if tcp {
		cl := rpc.NewClient(rpc.ClientOptions{})
		for i := 0; i < n; i++ {
			node, err := OpenRegionNode(b.TempDir(), NodeOptions{
				Options:   Options{DisableWAL: true},
				NodeID:    i + 1,
				Transport: cl,
			})
			if err != nil {
				b.Fatal(err)
			}
			srv, err := rpc.Serve("127.0.0.1:0", node.Handler(), rpc.ServerOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { srv.Close(); node.Close() })
			peers[i] = srv.Addr()
		}
		tr = cl
	} else {
		lb := NewLoopback()
		for i := 0; i < n; i++ {
			node, err := OpenRegionNode(b.TempDir(), NodeOptions{
				Options:   Options{DisableWAL: true},
				NodeID:    i + 1,
				Transport: lb,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { node.Close() })
			addr := fmt.Sprintf("s%d", i+1)
			lb.Register(addr, node.Handler())
			peers[i] = addr
		}
		tr = lb
	}
	if wrap != nil {
		tr = wrap(peers, tr)
	}
	ropts.Peers = peers
	ropts.Transport = tr
	r, err := OpenRouter(ropts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	return r
}

// BenchmarkNetworkedIngest measures routed PUT-batch throughput; the
// tcp/loopback ratio is the wire protocol's overhead (framing, CRC,
// kernel round trips).
func BenchmarkNetworkedIngest(b *testing.B) {
	for _, mode := range []string{"loopback", "tcp"} {
		b.Run(mode, func(b *testing.B) {
			r := benchCluster(b, mode == "tcp")
			val := bytes.Repeat([]byte("v"), 100)
			const batch = 100
			b.SetBytes(batch * (12 + 100))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wb WriteBatch
				for j := 0; j < batch; j++ {
					wb.Put([]byte(fmt.Sprintf("k-%09d", i*batch+j)), val)
				}
				if err := r.ApplyCtx(bg, &wb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetworkedGet measures routed point-read latency in three
// shapes: the loopback and TCP baselines, and a TCP cluster whose
// primary stalls 10ms on every point read with hedging enabled — the
// hedged variant's per-op cost should track the hedge delay plus a
// replica round trip, not the primary's stall.
func BenchmarkNetworkedGet(b *testing.B) {
	const keys = 5000
	load := func(b *testing.B, r *Router) {
		var wb WriteBatch
		for i := 0; i < keys; i++ {
			wb.Put([]byte(fmt.Sprintf("k-%09d", i)), []byte("v"))
			if wb.Len() == 1000 {
				if err := r.ApplyCtx(bg, &wb); err != nil {
					b.Fatal(err)
				}
				wb = WriteBatch{}
			}
		}
	}
	run := func(b *testing.B, r *Router) {
		load(b, r)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.GetCtx(bg, []byte(fmt.Sprintf("k-%09d", i%keys))); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("loopback", func(b *testing.B) { run(b, benchCluster(b, false)) })
	b.Run("tcp", func(b *testing.B) { run(b, benchCluster(b, true)) })
	b.Run("tcp-slow-primary-hedged", func(b *testing.B) {
		r := benchClusterOpts(b, true,
			RouterOptions{Replicas: 1, HedgeAfter: time.Millisecond},
			func(peers []string, tr Transport) Transport {
				ft := NewFaultTransport(tr, 1)
				ft.Add(TransportFaultRule{Addr: peers[0], Op: rpc.OpGet, Prob: 1, Delay: 10 * time.Millisecond})
				return ft
			})
		run(b, r)
	})
}

// BenchmarkNetworkedScan measures a routed 1000-row range scan.
func BenchmarkNetworkedScan(b *testing.B) {
	for _, mode := range []string{"loopback", "tcp"} {
		b.Run(mode, func(b *testing.B) {
			r := benchCluster(b, mode == "tcp")
			val := bytes.Repeat([]byte("v"), 100)
			var wb WriteBatch
			for i := 0; i < 20000; i++ {
				wb.Put([]byte(fmt.Sprintf("k-%09d", i)), val)
				if wb.Len() == 1000 {
					if err := r.ApplyCtx(bg, &wb); err != nil {
						b.Fatal(err)
					}
					wb = WriteBatch{}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				err := ScanRange(bg, r, KeyRange{Start: []byte("k-000005000"), End: []byte("k-000006000")},
					func(k, v []byte) bool { n++; return true })
				if err != nil {
					b.Fatal(err)
				}
				if n != 1000 {
					b.Fatalf("scan = %d", n)
				}
			}
		})
	}
}
