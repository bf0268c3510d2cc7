package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"just/internal/core"
	"just/internal/kv"
	"just/internal/rpc"
)

// startTCPRegionServers boots n region servers on real TCP sockets
// (127.0.0.1, ephemeral ports) and returns their addresses — the same
// topology `just-server -role=region` runs, in-process for the test.
func startTCPRegionServers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		node, err := kv.OpenRegionNode(t.TempDir(), kv.NodeOptions{
			NodeID:    i + 1,
			Transport: rpc.NewClient(rpc.ClientOptions{}),
		})
		if err != nil {
			t.Fatalf("open region node %d: %v", i+1, err)
		}
		srv, err := rpc.Serve("127.0.0.1:0", node.Handler(), rpc.ServerOptions{})
		if err != nil {
			t.Fatalf("rpc listen: %v", err)
		}
		t.Cleanup(func() { srv.Close(); node.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs
}

// newRouterModeServer opens the engine in router mode over the given
// region servers and serves HTTP in front of it.
func newRouterModeServer(t *testing.T, peers []string, opts Options) *httptest.Server {
	t.Helper()
	eng, err := core.Open(core.Config{
		Dir:    t.TempDir(),
		Router: &kv.RouterOptions{Peers: peers},
	})
	if err != nil {
		t.Fatalf("open router-mode engine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	s := New(eng, opts)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestServerRouterModeOverTCP is the end-to-end acceptance path: three
// region servers on real TCP sockets, a router-mode engine in front,
// SQL ingest and scan flowing through the wire protocol.
func TestServerRouterModeOverTCP(t *testing.T) {
	peers := startTCPRegionServers(t, 3)
	ts := newRouterModeServer(t, peers, Options{})

	res := post(t, ts.URL, "u1", `CREATE TABLE p (fid integer:primary key, name string, geom point)`)
	if res.Error != "" {
		t.Fatalf("create = %+v", res)
	}
	const rows = 50
	for i := 0; i < rows; i++ {
		res = post(t, ts.URL, "u1", fmt.Sprintf(
			`INSERT INTO p VALUES (%d, 'poi-%d', st_makePoint(%f, %f))`,
			i, i, 116.0+float64(i)*0.01, 39.0+float64(i)*0.01))
		if res.Error != "" {
			t.Fatalf("insert %d = %+v", i, res)
		}
	}
	res = post(t, ts.URL, "u1", `SELECT fid, name FROM p`)
	if res.Error != "" || res.Total != rows {
		t.Fatalf("select = %+v, want %d rows", res, rows)
	}
	res = post(t, ts.URL, "u1",
		`SELECT fid FROM p WHERE geom WITHIN st_makeMBR(116, 39, 116.2, 39.2)`)
	if res.Error != "" || res.Total == 0 {
		t.Fatalf("spatial select = %+v", res)
	}

	// The topology admin endpoint reports the routed region map.
	resp, err := http.Get(ts.URL + "/api/v1/admin/topology")
	if err != nil {
		t.Fatal(err)
	}
	var topo struct {
		Mode    string              `json:"mode"`
		Regions []kv.RegionTopology `json:"regions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if topo.Mode != "router" || len(topo.Regions) == 0 {
		t.Fatalf("topology = %+v", topo)
	}
	if topo.Regions[0].Primary == "" {
		t.Fatalf("region without primary: %+v", topo.Regions[0])
	}

	// Metrics flow back from the region servers over rpc, including the
	// networked counters.
	resp, err = http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var met map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"rpc_bytes_in", "rpc_bytes_out", "rpc_retries",
		"region_splits", "region_merges", "region_moves", "stale_map_refreshes"} {
		if _, ok := met[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if met["rpc_bytes_out"].(float64) == 0 {
		t.Error("rpc_bytes_out = 0 after TCP workload")
	}
	if met["bytes_written"].(float64) == 0 {
		t.Error("bytes_written = 0: region-server storage counters not aggregated")
	}
}

// TestRouterModeClusterOnlyEndpointsDegrade pins the contract that the
// standalone-only admin surfaces answer a typed 501 in router mode
// instead of panicking on the nil cluster.
func TestRouterModeClusterOnlyEndpointsDegrade(t *testing.T) {
	peers := startTCPRegionServers(t, 1)
	ts := newRouterModeServer(t, peers, Options{})

	for _, ep := range []string{
		"/api/v1/admin/scrub",
	} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented || body["code"] != "router_mode" {
			t.Errorf("%s = %d %v, want 501 router_mode", ep, resp.StatusCode, body)
		}
	}
	// Health and the generic surfaces still work.
	resp, err := http.Get(ts.URL + "/api/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health in router mode = %d", resp.StatusCode)
	}
}

// TestSecondRouterSeesTheCatalog: the catalog is rows on the region
// servers, so a table created through one router is listed and
// queryable through a second router over the same region servers,
// opened before the table existed, and rows the first router inserts
// outside the span the second has seen are found there. Neither
// router's Dir holds a file.
func TestSecondRouterSeesTheCatalog(t *testing.T) {
	lb := kv.NewLoopback()
	peers := []string{"s1", "s2", "s3"}
	for i, addr := range peers {
		node, err := kv.OpenRegionNode(t.TempDir(), kv.NodeOptions{NodeID: i + 1, Transport: lb})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		lb.Register(addr, node.Handler())
	}
	var urls, dirs []string
	for i := 0; i < 2; i++ {
		dir := t.TempDir()
		eng, err := core.Open(core.Config{Dir: dir, Router: &kv.RouterOptions{Peers: peers, Transport: lb}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		s := New(eng, Options{})
		t.Cleanup(s.Close)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		urls, dirs = append(urls, ts.URL), append(dirs, dir)
	}
	for _, q := range []string{
		`CREATE TABLE p (fid integer:primary key, time date, geom point)`,
		`INSERT INTO p VALUES (1, 3600000, st_makePoint(116.4, 39.9)), (2, 180000000, st_makePoint(116.5, 39.8))`,
	} {
		if res := post(t, urls[0], "u1", q); res.Error != "" {
			t.Fatalf("%s through the first router = %+v", q, res)
		}
	}
	res := post(t, urls[1], "u1", `SHOW TABLES`)
	if res.Error != "" || res.Total != 1 || res.Rows[0][0] != "p" {
		t.Fatalf("SHOW TABLES through the second router = %+v", res)
	}
	res = post(t, urls[1], "u1", `SELECT fid FROM p WHERE geom WITHIN st_makeMBR(116, 39, 117, 40) AND time BETWEEN 170000000 AND 190000000`)
	if res.Error != "" || res.Total != 1 || res.Rows[0][0] != float64(2) {
		t.Fatalf("ST query through the second router = %+v", res)
	}
	// The second router now holds the table with the span [1 h, 50 h];
	// rows the first router adds on either side of it are still found.
	q := `INSERT INTO p VALUES (3, 360000000, st_makePoint(116.4, 39.9)), (4, -3600000, st_makePoint(116.4, 39.9))`
	if res := post(t, urls[0], "u1", q); res.Error != "" {
		t.Fatalf("%s through the first router = %+v", q, res)
	}
	for q, fid := range map[string]float64{
		`SELECT fid FROM p WHERE geom WITHIN st_makeMBR(116, 39, 117, 40) AND time BETWEEN 350000000 AND 370000000`: 3,
		`SELECT fid FROM p WHERE geom WITHIN st_makeMBR(116, 39, 117, 40) AND time < 0`:                             4,
	} {
		if res := post(t, urls[1], "u1", q); res.Error != "" || res.Total != 1 || res.Rows[0][0] != fid {
			t.Fatalf("%s through the second router = %+v, want fid %v", q, res, fid)
		}
	}
	for _, dir := range dirs {
		if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
			t.Fatalf("router Dir %s holds %v (err %v), want nothing", dir, files, err)
		}
	}
}
