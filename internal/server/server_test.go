package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"just/internal/core"
	"just/internal/geom"
	"just/internal/kv"
	"just/pkg/client"
)

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Server) {
	t.Helper()
	eng, err := core.Open(core.Config{
		Dir:     t.TempDir(),
		Cluster: kv.ClusterOptions{Options: kv.Options{DisableWAL: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	s := New(eng, opts)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func post(t *testing.T, url, user, sqlText string) sqlResponse {
	t.Helper()
	body, _ := json.Marshal(sqlRequest{User: user, SQL: sqlText})
	resp, err := http.Post(url+"/api/v1/sql", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out sqlResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestServerDDLAndQuery(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	res := post(t, ts.URL, "u1", `CREATE TABLE p (fid integer:primary key, geom point)`)
	if res.Error != "" || !strings.Contains(res.Message, "created") {
		t.Fatalf("create = %+v", res)
	}
	res = post(t, ts.URL, "u1", `INSERT INTO p VALUES (1, st_makePoint(116.4, 39.9))`)
	if res.Error != "" {
		t.Fatalf("insert = %+v", res)
	}
	res = post(t, ts.URL, "u1", `SELECT fid, geom FROM p WHERE geom WITHIN st_makeMBR(116, 39, 117, 40)`)
	if res.Error != "" || res.Total != 1 {
		t.Fatalf("select = %+v", res)
	}
	if res.Columns[1] != "geom" {
		t.Fatalf("columns = %v", res.Columns)
	}
	g, ok := res.Rows[0][1].(map[string]any)
	if !ok || !strings.HasPrefix(g["wkt"].(string), "POINT") {
		t.Fatalf("geometry encoding = %v", res.Rows[0][1])
	}
}

func TestServerErrors(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	res := post(t, ts.URL, "u1", `SELEKT * FROM x`)
	if res.Error == "" {
		t.Fatal("bad SQL should report an error")
	}
	resp, err := http.Get(ts.URL + "/api/v1/sql")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/api/v1/fetch?cursor=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus cursor status = %d", resp.StatusCode)
	}
}

func TestServerHealth(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/api/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health = %d", resp.StatusCode)
	}
}

func TestCursorPagingWithSDK(t *testing.T) {
	ts, _ := newTestServer(t, Options{PageSize: 10})
	c := client.Connect(ts.URL, "u1")
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(`CREATE TABLE p (fid integer:primary key, geom point)`); err != nil {
		t.Fatal(err)
	}
	var values []string
	for i := 0; i < 35; i++ {
		values = append(values, fmt.Sprintf("(%d, st_makePoint(%g, 39.9))", i, 116.0+float64(i)*0.001))
	}
	if _, err := c.Execute(`INSERT INTO p VALUES ` + strings.Join(values, ",")); err != nil {
		t.Fatal(err)
	}
	rs, err := c.ExecuteQuery(`SELECT fid FROM p WHERE geom WITHIN st_makeMBR(115,39,117,40) ORDER BY fid`)
	if err != nil {
		t.Fatal(err)
	}
	// 35 rows with page size 10: the Fig. 2 multi-transmission path.
	n := 0
	for rs.HasNext() {
		row, err := rs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if int(row[0].(float64)) != n {
			t.Fatalf("row %d = %v", n, row)
		}
		n++
	}
	if rs.Err() != nil {
		t.Fatal(rs.Err())
	}
	if n != 35 {
		t.Fatalf("paged through %d rows, want 35", n)
	}
}

func TestCursorExpiry(t *testing.T) {
	ts, s := newTestServer(t, Options{PageSize: 5, CursorTTL: time.Minute})
	now := time.Unix(0, 0)
	s.now = func() time.Time { return now }
	c := client.Connect(ts.URL, "u1")
	c.Execute(`CREATE TABLE p (fid integer:primary key, geom point)`)
	var values []string
	for i := 0; i < 20; i++ {
		values = append(values, fmt.Sprintf("(%d, st_makePoint(116.0, 39.9))", i))
	}
	c.Execute(`INSERT INTO p VALUES ` + strings.Join(values, ","))
	rs, err := c.ExecuteQuery(`SELECT fid FROM p WHERE geom WITHIN st_makeMBR(115,39,117,40)`)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the first page, then let the cursor expire.
	for i := 0; i < 5; i++ {
		if !rs.HasNext() {
			t.Fatal("first page short")
		}
		rs.Next()
	}
	now = now.Add(2 * time.Minute)
	if rs.HasNext() {
		t.Fatal("expired cursor should stop paging")
	}
	if rs.Err() == nil {
		t.Fatal("expiry should surface as an error")
	}
}

func TestEncodeValueForms(t *testing.T) {
	got := encodeValue([]geom.TPoint{{Point: geom.Point{Lng: 1, Lat: 2}, T: 3}})
	m, ok := got.(map[string]any)
	if !ok {
		t.Fatalf("st_series encoded as %T", got)
	}
	pts := m["st_series"].([][3]float64)
	if len(pts) != 1 || pts[0] != [3]float64{1, 2, 3} {
		t.Fatalf("st_series = %v", pts)
	}
	b := encodeValue([]byte{1, 2, 3}).(map[string]any)
	if b["bytes"] != "AQID" {
		t.Fatalf("bytes = %v", b)
	}
	if encodeValue(int64(5)) != int64(5) {
		t.Fatal("scalars pass through")
	}
	g := encodeValue(geom.Point{Lng: 1, Lat: 2}).(map[string]any)
	if g["wkt"] != "POINT (1 2)" {
		t.Fatalf("wkt = %v", g)
	}
}

func TestUserIsolationOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	a := client.Connect(ts.URL, "alice")
	b := client.Connect(ts.URL, "bob")
	a.Execute(`CREATE TABLE t (fid integer:primary key, geom point)`)
	a.Execute(`INSERT INTO t VALUES (1, st_makePoint(1,1))`)
	if _, err := b.ExecuteQuery(`SELECT * FROM t`); err == nil {
		t.Fatal("bob should not see alice's table")
	}
}

func TestServerMetrics(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	post(t, ts.URL, "u1", `CREATE TABLE p (fid integer:primary key, geom point)`)
	for i := 0; i < 5; i++ {
		post(t, ts.URL, "u1", fmt.Sprintf(`INSERT INTO p VALUES (%d, st_makePoint(116.4, 39.9))`, i))
	}
	post(t, ts.URL, "u1", `SELECT fid FROM p WHERE geom WITHIN st_makeMBR(116, 39, 117, 40)`)
	resp, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"regions", "scan_tasks", "scan_pairs"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q: %v", key, m)
		}
	}
	if m["scan_pairs"].(float64) <= 0 {
		t.Errorf("scan_pairs = %v, want > 0 after a scan", m["scan_pairs"])
	}
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCursorLRUBounds checks the cursor cache evicts least-recently-
// used cursors past the configured count bound, and that byte
// accounting tracks stores and fetches.
func TestCursorLRUBounds(t *testing.T) {
	ts, s := newTestServer(t, Options{PageSize: 2, MaxCursors: 3})
	c := client.Connect(ts.URL, "u1")
	c.Execute(`CREATE TABLE p (fid integer:primary key, geom point)`)
	var values []string
	for i := 0; i < 10; i++ {
		values = append(values, fmt.Sprintf("(%d, st_makePoint(116.0, 39.9))", i))
	}
	c.Execute(`INSERT INTO p VALUES ` + strings.Join(values, ","))

	// Each query leaves one open cursor (10 rows, page size 2).
	var ids []string
	for i := 0; i < 5; i++ {
		res := post(t, ts.URL, "u1", `SELECT fid FROM p WHERE geom WITHIN st_makeMBR(115,39,117,40)`)
		if res.Cursor == "" {
			t.Fatalf("query %d left no cursor", i)
		}
		ids = append(ids, res.Cursor)
	}
	s.mu.Lock()
	open, bytes, evicted := len(s.cursors), s.cursorBytes, s.evicted
	s.mu.Unlock()
	if open != 3 {
		t.Fatalf("open cursors = %d, want 3 (MaxCursors)", open)
	}
	if evicted != 2 {
		t.Fatalf("evicted = %d, want 2", evicted)
	}
	if bytes <= 0 {
		t.Fatalf("cursorBytes = %d, want > 0", bytes)
	}

	// The two oldest cursors were evicted; the newest still pages.
	for _, id := range ids[:2] {
		resp, err := http.Get(ts.URL + "/api/v1/fetch?cursor=" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("evicted cursor %s fetch = %d, want 404", id, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/api/v1/fetch?cursor=" + ids[4])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live cursor fetch = %d", resp.StatusCode)
	}
}

// TestCursorByteBound: a tiny byte budget keeps only the newest cursor.
func TestCursorByteBound(t *testing.T) {
	ts, s := newTestServer(t, Options{PageSize: 2, MaxCursorBytes: 1})
	c := client.Connect(ts.URL, "u1")
	c.Execute(`CREATE TABLE p (fid integer:primary key, geom point)`)
	var values []string
	for i := 0; i < 10; i++ {
		values = append(values, fmt.Sprintf("(%d, st_makePoint(116.0, 39.9))", i))
	}
	c.Execute(`INSERT INTO p VALUES ` + strings.Join(values, ","))
	for i := 0; i < 3; i++ {
		if res := post(t, ts.URL, "u1", `SELECT fid FROM p WHERE geom WITHIN st_makeMBR(115,39,117,40)`); res.Cursor == "" {
			t.Fatalf("query %d left no cursor", i)
		}
	}
	s.mu.Lock()
	open := len(s.cursors)
	s.mu.Unlock()
	if open != 1 {
		t.Fatalf("open cursors = %d, want 1 (newest survives a 1-byte budget)", open)
	}
}

// TestAdminScrubEndpoints: GET reports integrity state, POST runs a
// synchronous scrub pass, and the integrity counters are on /metrics.
func TestAdminScrubEndpoints(t *testing.T) {
	ts, s := newTestServer(t, Options{})
	var b kv.WriteBatch
	b.Put([]byte("k"), []byte("v"))
	if err := s.engine.Cluster().ApplyCtx(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	if err := s.engine.Cluster().Flush(); err != nil {
		t.Fatal(err)
	}

	m := getJSON(t, ts.URL+"/api/v1/admin/scrub")
	scrub, ok := m["scrub"].(map[string]any)
	if !ok {
		t.Fatalf("scrub state = %v", m)
	}
	if scrub["runs"].(float64) != 0 {
		t.Fatalf("runs before any scrub = %v", scrub["runs"])
	}
	if nodes := scrub["nodes"].([]any); len(nodes) == 0 {
		t.Fatalf("no nodes in scrub state: %v", scrub)
	}

	resp, err := http.Post(ts.URL+"/api/v1/admin/scrub/run", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrub/run status = %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if errMsg, ok := out["error"]; ok {
		t.Fatalf("scrub reported error on healthy store: %v", errMsg)
	}
	scrub = out["scrub"].(map[string]any)
	if scrub["runs"].(float64) != 1 || scrub["blocks_scrubbed"].(float64) == 0 {
		t.Fatalf("scrub after run = %v", scrub)
	}

	// GET on the run endpoint and POST on the state endpoint are rejected.
	if r2, _ := http.Get(ts.URL + "/api/v1/admin/scrub/run"); r2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET scrub/run = %d", r2.StatusCode)
	}
	if r3, _ := http.Post(ts.URL+"/api/v1/admin/scrub", "application/json", nil); r3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST scrub = %d", r3.StatusCode)
	}

	mm := getJSON(t, ts.URL+"/api/v1/metrics")
	for _, key := range []string{
		"corruptions_detected", "read_retries", "blocks_scrubbed",
		"scrub_runs", "orphans_removed",
	} {
		if _, ok := mm[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if mm["blocks_scrubbed"].(float64) == 0 {
		t.Errorf("blocks_scrubbed = %v, want > 0", mm["blocks_scrubbed"])
	}
}

// TestMetricsKeySetGolden pins the exact key set of /api/v1/metrics:
// the storage counters reach the response through kv.Metrics' json
// tags, so a renamed tag or a dropped gauge must fail here. A new
// counter adds its tag to this list.
func TestMetricsKeySetGolden(t *testing.T) {
	want := []string{
		"batches_decoded", "block_cache_hits", "block_cache_misses", "blocks_read",
		"blocks_scrubbed", "blocks_skipped", "bloom_negatives",
		"breaker_fast_fails", "breaker_opens", "bytes_read", "bytes_written",
		"codecs", "compactions", "compactions_deferred", "corruptions_detected",
		"cursor_bytes", "cursors_evicted", "cursors_expired", "cursors_open",
		"deadline_aborts", "disk_free_bytes", "disk_pressure",
		"failovers", "flush_queue_depth", "flushes", "group_commit_records",
		"group_commits", "jobs", "jobs_healthy", "orphans_removed",
		"peak_query_bytes", "queries_active", "queries_admitted",
		"queries_canceled", "queries_deadline_exceeded", "queries_killed",
		"queries_mem_budget_kills", "queries_queued", "queries_shed",
		"read_retries", "region_merges", "region_moves", "region_splits",
		"regions", "rpc_bytes_in", "rpc_bytes_out", "rpc_hedge_wins",
		"rpc_hedges", "rpc_redials", "rpc_retries", "scan_cancels",
		"scan_pairs", "scan_tasks", "scrub_runs",
		"slow_queries", "stale_map_refreshes",
		"stats_refreshes", "wal_sync_bytes", "wal_syncs",
		"write_stall_nanos", "write_stalls",
	}
	ts, _ := newTestServer(t, Options{})
	m := getJSON(t, ts.URL+"/api/v1/metrics")
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics key set changed:\n got %v\nwant %v", got, want)
	}
	// Counters stay JSON numbers, as the hand-written map emitted them.
	if _, ok := m["bytes_written"].(float64); !ok {
		t.Fatalf("bytes_written = %T, want a number", m["bytes_written"])
	}
}
