// Package server implements JUST's service layer (Section VII): an HTTP
// PaaS front end over one shared engine. All users share the engine's
// execution context (the paper's shared Spark context); each user gets a
// private table/view namespace; a result streams back as JSON lines,
// flushed every PageSize rows, and the SDK's ResultSet reads it one
// row at a time (Fig. 2).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"mime"
	"net/http"
	"reflect"
	"strconv"
	"sync/atomic"
	"time"

	"just/internal/compress"
	"just/internal/core"
	"just/internal/exec"
	"just/internal/jobs"
	"just/internal/kv"
	"just/internal/sql"
)

// Options tune the server.
type Options struct {
	// PageSize is the rows per transmission of a result stream: the
	// server flushes the response after every PageSize rows; default
	// 1000 (the paper's configurable split threshold).
	PageSize int
	// QueryTimeout is the default per-query deadline; 0 means none. A
	// request may tighten it (never widen it) with an X-JUST-Timeout
	// header holding a Go duration.
	QueryTimeout time.Duration
	// MaxConcurrentQueries bounds queries executing at once; 0 means
	// unlimited. Excess queries wait in a bounded queue and are shed
	// with 429/503 once it overflows or their deadline passes.
	MaxConcurrentQueries int
	// MaxQueuedQueries bounds the admission wait queue; default 2x
	// MaxConcurrentQueries. Only meaningful with MaxConcurrentQueries.
	MaxQueuedQueries int
	// QueryMemBudget caps the bytes one query may hold in dataframes
	// and scan buffers; 0 means unlimited. Exceeding it fails the
	// query with a typed memory_budget error instead of an engine OOM.
	QueryMemBudget int64
	// MaxBodyBytes bounds the request body of POST /api/v1/sql;
	// default 1 MiB. Oversized bodies get HTTP 413.
	MaxBodyBytes int64
	// SlowQueryThreshold logs queries slower than this; default 1s.
	SlowQueryThreshold time.Duration
}

func (o Options) withDefaults() Options {
	if o.PageSize <= 0 {
		o.PageSize = 1000
	}
	if o.MaxQueuedQueries <= 0 {
		o.MaxQueuedQueries = 2 * o.MaxConcurrentQueries
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.SlowQueryThreshold <= 0 {
		o.SlowQueryThreshold = time.Second
	}
	return o
}

// Server is the HTTP front end.
type Server struct {
	engine   *core.Engine
	opts     Options
	adm      *admissionController
	registry *queryRegistry

	// Query lifecycle counters.
	canceled         atomic.Int64 // queries ended by cancellation (disconnect or kill)
	deadlineExceeded atomic.Int64 // queries ended by their deadline
	memBudgetKills   atomic.Int64 // queries ended by the per-query memory budget
	slowQueries      atomic.Int64 // queries past SlowQueryThreshold
	peakQueryBytes   atomic.Int64 // high-water mark of any single query's memory
}

// New creates a server over an engine.
func New(engine *core.Engine, opts Options) *Server {
	opts = opts.withDefaults()
	return &Server{
		engine:   engine,
		opts:     opts,
		adm:      newAdmissionController(opts.MaxConcurrentQueries, opts.MaxQueuedQueries),
		registry: newQueryRegistry(),
	}
}

// Close does nothing: the server keeps no state beyond its requests,
// and each request releases its own when its response ends. It does
// not close the engine.
func (s *Server) Close() {}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/sql", s.handleSQL)
	mux.HandleFunc("/api/v1/health", s.handleHealth)
	mux.HandleFunc("/api/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/api/v1/admin/queries", s.handleQueries)
	mux.HandleFunc("/api/v1/admin/queries/kill", s.handleQueryKill)
	mux.HandleFunc("/api/v1/admin/topology", s.handleTopology)
	mux.HandleFunc("/api/v1/admin/scrub", s.handleScrub)
	mux.HandleFunc("/api/v1/admin/scrub/run", s.handleScrubRun)
	mux.HandleFunc("/api/v1/admin/stats/refresh", s.handleStatsRefresh)
	mux.HandleFunc("/api/v1/admin/jobs", s.handleJobs)
	mux.HandleFunc("/api/v1/admin/jobs/run", s.handleJobsRun)
	mux.HandleFunc("/api/v1/admin/jobs/pause", s.handleJobsPause)
	mux.HandleFunc("/api/v1/admin/jobs/resume", s.handleJobsResume)
	return mux
}

// handleJobs reports the maintenance scheduler: per-job state and run
// history, per-class quarantine/pause state and counters, and the
// disk-pressure watchdog — GET /api/v1/admin/jobs.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, s.engine.Jobs().Snapshot())
}

// jobActionRequest is the body of the POST /api/v1/admin/jobs/*
// actions: run wants a job name; pause/resume want a class.
type jobActionRequest struct {
	Name  string `json:"name"`
	Class string `json:"class"`
}

// handleJobsRun triggers one registered job and waits for the result:
// POST /api/v1/admin/jobs/run {"name": "scrub:..."}. Concurrent runs of
// the same job collapse onto the in-flight one.
func (s *Server) handleJobsRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req jobActionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Name == "" {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad request: need {\"name\": ...}"})
		return
	}
	resp := map[string]any{"job": req.Name, "ok": true}
	if err := s.engine.Jobs().RunNow(r.Context(), req.Name); err != nil {
		resp["ok"] = false
		resp["error"] = err.Error()
		if errors.Is(err, jobs.ErrUnknownJob) {
			writeJSON(w, http.StatusNotFound, resp)
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobsPause pauses a maintenance class (new runs are refused with
// a typed error until resumed): POST {"class": "compact"}.
func (s *Server) handleJobsPause(w http.ResponseWriter, r *http.Request) {
	s.handleJobsClassAction(w, r, func(c jobs.Class) { s.engine.Jobs().Pause(c) })
}

// handleJobsResume resumes a paused class and lifts any quarantine on
// it (the operator override): POST {"class": "compact"}.
func (s *Server) handleJobsResume(w http.ResponseWriter, r *http.Request) {
	s.handleJobsClassAction(w, r, func(c jobs.Class) { s.engine.Jobs().Resume(c) })
}

func (s *Server) handleJobsClassAction(w http.ResponseWriter, r *http.Request, apply func(jobs.Class)) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req jobActionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Class == "" {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad request: need {\"class\": ...}"})
		return
	}
	apply(jobs.Class(req.Class))
	writeJSON(w, http.StatusOK, s.engine.Jobs().Snapshot())
}

// sqlRequest is the body of POST /api/v1/sql.
type sqlRequest struct {
	User string `json:"user"`
	SQL  string `json:"sql"`
}

// sqlResponse is the one JSON object a statement that fails before
// its stream starts gets, and the terminal line of a stream. Code
// classifies lifecycle failures ("deadline_exceeded", "canceled",
// "killed", "memory_budget", "body_too_large", "queue_full",
// "queue_timeout") so clients can branch without parsing the message.
type sqlResponse struct {
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// streamHeader is the first line of a successful statement's stream.
type streamHeader struct {
	Message string   `json:"message,omitempty"`
	Columns []string `json:"columns,omitempty"`
}

func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || (mt != "application/json" && mt != "text/json") {
			writeJSON(w, http.StatusUnsupportedMediaType,
				sqlResponse{Error: fmt.Sprintf("unsupported content type %q, want application/json", ct), Code: "bad_content_type"})
			return
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var req sqlRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				sqlResponse{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), Code: "body_too_large"})
			return
		}
		writeJSON(w, http.StatusBadRequest, sqlResponse{Error: "bad request: " + err.Error()})
		return
	}
	if req.User == "" {
		req.User = r.Header.Get("X-JUST-User")
	}

	// The query's lifecycle context: client disconnect cancels it, and
	// the effective deadline (server default, tightened per-request by
	// X-JUST-Timeout) bounds it.
	ctx := r.Context()
	timeout := s.opts.QueryTimeout
	if h := r.Header.Get("X-JUST-Timeout"); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil || d <= 0 {
			writeJSON(w, http.StatusBadRequest, sqlResponse{Error: fmt.Sprintf("bad X-JUST-Timeout %q", h)})
			return
		}
		if timeout == 0 || d < timeout {
			timeout = d
		}
	}
	if timeout > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, timeout)
		defer cancelT()
	}

	release, err := s.adm.admit(ctx)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		switch {
		case errors.Is(err, errQueueFull):
			writeJSON(w, http.StatusTooManyRequests, sqlResponse{Error: err.Error(), Code: "queue_full"})
		default:
			writeJSON(w, http.StatusServiceUnavailable, sqlResponse{Error: err.Error(), Code: "queue_timeout"})
		}
		return
	}
	defer release()

	q := exec.NewQuery(s.opts.QueryMemBudget)
	qctx, cancelQ := context.WithCancel(exec.WithQuery(ctx, q))
	defer cancelQ()
	start := time.Now()
	entry := s.registry.register(req.User, req.SQL, start, cancelQ, q)
	defer s.registry.unregister(entry.id)

	sess := sql.NewSession(s.engine, req.User)
	res, err := sess.ExecuteContext(qctx, req.SQL)

	if peak := q.MemPeak(); peak > 0 {
		for {
			old := s.peakQueryBytes.Load()
			if peak <= old || s.peakQueryBytes.CompareAndSwap(old, peak) {
				break
			}
		}
	}
	if elapsed := time.Since(start); elapsed > s.opts.SlowQueryThreshold {
		s.slowQueries.Add(1)
		log.Printf("just/server: slow query user=%q elapsed=%s rows=%d sql=%q",
			req.User, elapsed, q.Rows(), truncateSQL(req.SQL))
	}

	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, sqlResponse{Error: err.Error(), Code: s.classify(err, entry)})
		return
	}
	s.stream(qctx, w, entry, res)
}

// classify maps a statement's error to its lifecycle code and counts
// it; an error that is not a lifecycle failure gets no code.
func (s *Server) classify(err error, entry *queryEntry) string {
	switch {
	case errors.Is(err, exec.ErrDeadlineExceeded):
		s.deadlineExceeded.Add(1)
		return "deadline_exceeded"
	case errors.Is(err, exec.ErrQueryCanceled):
		s.canceled.Add(1)
		if entry.killed.Load() {
			return "killed"
		}
		return "canceled"
	case errors.Is(err, exec.ErrMemoryBudget):
		s.memBudgetKills.Add(1)
		return "memory_budget"
	}
	return ""
}

// stream writes a successful statement as JSON lines: the header, one
// array per row appended from the frame's batches as they are walked
// (appendRow), and a terminal sqlResponse with the row count. The query
// context is checked before each batch; once it is done, or a value
// has no JSON form (NaN, ±Inf), the terminal line carries the error
// instead, after the last whole row. A failed write ends the stream,
// since the client is gone.
func (s *Server) stream(ctx context.Context, w http.ResponseWriter, entry *queryEntry, res *sql.Result) {
	hdr := streamHeader{Message: res.Message}
	var batches []*exec.ColumnBatch
	if res.Frame != nil {
		defer res.Frame.Release()
		hdr.Columns = res.Frame.Schema().Names()
		batches = res.Frame.Batches()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	if enc.Encode(hdr) != nil {
		return
	}
	rc := http.NewResponseController(w)
	var end sqlResponse
	var line []byte
rows:
	for _, b := range batches {
		if err := exec.MapCtxErr(ctx.Err()); err != nil {
			end.Error, end.Code = err.Error(), s.classify(err, entry)
			break
		}
		for i := range b.Len() {
			var err error
			if line, err = appendRow(line[:0], b, i); err != nil {
				end.Error = err.Error()
				break rows
			}
			if _, err := w.Write(line); err != nil {
				return
			}
			if end.Total++; end.Total%s.opts.PageSize == 0 {
				// A writer without Flush (ErrNotSupported) still sends
				// the rows as its buffer fills.
				rc.Flush()
			}
		}
	}
	enc.Encode(end)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"regions": s.engine.Store().Regions(),
	})
}

// cluster returns the in-process cluster, or writes a typed 501 and
// returns nil when the engine routes to networked region servers:
// scrub exists only on the standalone store.
func (s *Server) cluster(w http.ResponseWriter) *kv.Cluster {
	c := s.engine.Cluster()
	if c == nil {
		writeJSON(w, http.StatusNotImplemented, map[string]any{
			"error": "not available in router mode; see /api/v1/admin/topology",
			"code":  "router_mode",
		})
	}
	return c
}

// handleTopology reports the storage topology: in router mode the
// cached region map (range, epoch, primary, replicas per region) and
// peer health; in standalone mode the region count.
func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if rt := s.engine.Router(); rt != nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"mode":    "router",
			"regions": rt.Topology(),
			"peers":   rt.PeerHealth(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"mode":    "standalone",
		"regions": s.engine.Store().Regions(),
	})
}

// handleMetrics exposes the storage counters: the scan pipeline's
// pairs-scanned / rows-kept stage counters, the write path's
// group-commit, WAL-sync, flush-queue and write-stall counters, the
// networked routing and failover counters and the query lifecycle
// counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.engine.Store().Metrics()
	// Server-side gauges; every kv.Metrics counter joins them below under
	// its json tag, so a new storage counter needs no line here.
	out := map[string]any{
		"regions":                   s.engine.Store().Regions(),
		"stats_refreshes":           s.engine.StatsRefreshes(),
		"queries_admitted":          s.adm.admitted.Load(),
		"queries_queued":            s.adm.queued.Load(),
		"queries_shed":              s.adm.shed.Load(),
		"queries_canceled":          s.canceled.Load(),
		"queries_deadline_exceeded": s.deadlineExceeded.Load(),
		"queries_mem_budget_kills":  s.memBudgetKills.Load(),
		"queries_killed":            s.registry.killed.Load(),
		"queries_active":            s.registry.count(),
		"peak_query_bytes":          s.peakQueryBytes.Load(),
		"slow_queries":              s.slowQueries.Load(),
		"codecs":                    compress.Stats(),
		"jobs":                      s.engine.Jobs().Metrics(),
		"jobs_healthy":              s.engine.Jobs().Healthy(),
		"disk_pressure":             s.engine.Jobs().Pressured(),
		"disk_free_bytes":           s.engine.Jobs().DiskFree(),
	}
	mv := reflect.ValueOf(m)
	for i := 0; i < mv.NumField(); i++ {
		out[mv.Type().Field(i).Tag.Get("json")] = mv.Field(i).Int()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleScrub reports integrity/scrub status: GET /api/v1/admin/scrub.
func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	c := s.cluster(w)
	if c == nil {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"scrub": c.ScrubState(),
	})
}

// handleScrubRun runs a synchronous scrub pass over every SSTable block
// of the store: POST /api/v1/admin/scrub/run. The response reports
// the pass's outcome; an error field means corruption was found.
func (s *Server) handleScrubRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	c := s.cluster(w)
	if c == nil {
		return
	}
	resp := map[string]any{}
	if err := c.Scrub(r.Context()); err != nil {
		resp["error"] = err.Error()
	}
	resp["scrub"] = c.ScrubState()
	writeJSON(w, http.StatusOK, resp)
}

// statsRefreshRequest is the body of POST /api/v1/admin/stats/refresh.
type statsRefreshRequest struct {
	User  string `json:"user"`
	Table string `json:"table"`
}

// handleStatsRefresh recollects planner statistics for a table (the
// ANALYZE entry point): POST /api/v1/admin/stats/refresh with
// {"user": ..., "table": ...}. The response summarizes the fresh
// snapshot; subsequent scans of the table plan cost-based from it.
func (s *Server) handleStatsRefresh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req statsRefreshRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body", http.StatusBadRequest)
		return
	}
	if req.User == "" {
		req.User = r.Header.Get("X-JUST-User")
	}
	st, err := s.engine.RefreshStats(r.Context(), req.User, req.Table)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	indexes := map[string]any{}
	for id, is := range st.Indexes {
		indexes[strconv.Itoa(int(id))] = map[string]any{
			"keys":        is.Keys,
			"sample_size": len(is.Sample),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"table":           req.Table,
		"row_count":       st.RowCount,
		"collected_at_ms": st.CollectedAtMS,
		"indexes":         indexes,
	})
}

// truncateSQL bounds statements for the slow-query log.
func truncateSQL(q string) string {
	const max = 200
	if len(q) > max {
		return q[:max] + "..."
	}
	return q
}

// handleQueries lists in-flight queries: GET /api/v1/admin/queries.
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"queries": s.registry.snapshot(time.Now()),
	})
}

// killRequest is the body of POST /api/v1/admin/queries/kill.
type killRequest struct {
	ID int64 `json:"id"`
}

// handleQueryKill cancels one in-flight query by id. The victim fails
// with a typed canceled error (code "killed" in its response).
func (s *Server) handleQueryKill(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req killRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "bad request: " + err.Error()})
		return
	}
	if !s.registry.kill(req.ID) {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "no such query: " + strconv.FormatInt(req.ID, 10)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"killed": req.ID})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
