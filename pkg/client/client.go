// Package client is the Go SDK for a JUST server (Section VII-B): it
// speaks the HTTP protocol and exposes the cursor-style ResultSet of the
// paper's Fig. 2 snippet —
//
//	rs, err := client.ExecuteQuery(sql)
//	for rs.HasNext() {
//	    row, err := rs.Next()
//	    ...
//	}
//	rs.Close()
//
// A result arrives as one stream of JSON lines (a header, one array per
// row, a terminal line with the row count), sent in transmissions of
// the server's page size; HasNext reads the next line. Close on a result
// not read to its end closes the response, which cancels the query on
// the server.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Client talks to one JUST server on behalf of one user.
type Client struct {
	baseURL string
	user    string
	http    *http.Client
}

// Connect creates a client; baseURL like "http://localhost:8045".
func Connect(baseURL, user string) *Client {
	return &Client{
		baseURL: baseURL,
		user:    user,
		http:    &http.Client{Timeout: 120 * time.Second},
	}
}

type sqlRequest struct {
	User string `json:"user"`
	SQL  string `json:"sql"`
}

// streamLine is the header of a stream, or the one object of a
// statement that failed before its stream started.
type streamLine struct {
	Message string   `json:"message"`
	Columns []string `json:"columns"`
	Error   string   `json:"error"`
}

// ExecuteQuery runs a JustQL statement and returns its result stream.
func (c *Client) ExecuteQuery(justql string) (*ResultSet, error) {
	return c.ExecuteQueryContext(context.Background(), justql)
}

// ExecuteQueryContext is ExecuteQuery bounded by a context: cancelling
// it aborts the HTTP request, and the server cancels the in-flight
// query when the connection drops.
func (c *Client) ExecuteQueryContext(ctx context.Context, justql string) (*ResultSet, error) {
	body, err := json.Marshal(sqlRequest{User: c.user, SQL: justql})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+"/api/v1/sql", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	rs := &ResultSet{body: resp.Body, dec: json.NewDecoder(resp.Body)}
	var hdr streamLine
	if err := rs.dec.Decode(&hdr); err != nil {
		rs.finish()
		return nil, fmt.Errorf("client: bad response: %w", err)
	}
	if hdr.Error != "" {
		rs.finish()
		return nil, fmt.Errorf("client: server error: %s", hdr.Error)
	}
	rs.message, rs.columns = hdr.Message, hdr.Columns
	// Read ahead one line: a statement without rows (DDL, DML, an
	// empty result) ends here and frees its connection at once, even
	// if the caller never iterates or closes it.
	rs.HasNext()
	return rs, nil
}

// Execute is an alias of ExecuteQuery for DDL/DML readability.
func (c *Client) Execute(justql string) (*ResultSet, error) { return c.ExecuteQuery(justql) }

// ExecuteContext is an alias of ExecuteQueryContext for DDL/DML
// readability.
func (c *Client) ExecuteContext(ctx context.Context, justql string) (*ResultSet, error) {
	return c.ExecuteQueryContext(ctx, justql)
}

// Health pings the server.
func (c *Client) Health() error {
	resp, err := c.http.Get(c.baseURL + "/api/v1/health")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: health status %d", resp.StatusCode)
	}
	return nil
}

// ResultSet is the client-side cursor over a result stream. Rows are
// []any with JSON-decoded values (numbers arrive as float64; geometries
// as {"wkt": ...} maps).
type ResultSet struct {
	message string
	columns []string
	body    io.ReadCloser // nil once the stream has ended or was closed
	dec     *json.Decoder
	row     []any // the row HasNext read ahead, nil if none
	err     error
	closed  bool
}

// Message returns the DDL/DML message.
func (rs *ResultSet) Message() string { return rs.message }

// Columns returns the result column names.
func (rs *ResultSet) Columns() []string { return rs.columns }

// HasNext reports whether another row is available, reading the next
// line of the stream. The terminal line ends the stream; its error, or
// a stream cut before it, is reported by Err.
func (rs *ResultSet) HasNext() bool {
	if rs.row != nil {
		return true
	}
	if rs.body == nil {
		return false
	}
	var line any
	if err := rs.dec.Decode(&line); err != nil {
		rs.err = fmt.Errorf("client: result stream ended without its terminal line: %w", err)
		rs.finish()
		return false
	}
	switch x := line.(type) {
	case []any:
		rs.row = x
		return true
	case map[string]any:
		if msg, ok := x["error"].(string); ok {
			rs.err = fmt.Errorf("client: server error: %s", msg)
		}
	default:
		rs.err = fmt.Errorf("client: bad result line %v", line)
	}
	rs.finish()
	return false
}

// finish reads the response to its end, so the connection can serve the
// next request, and closes it.
func (rs *ResultSet) finish() {
	io.Copy(io.Discard, rs.body)
	rs.body.Close()
	rs.body = nil
}

// Next returns the next row.
func (rs *ResultSet) Next() ([]any, error) {
	if rs.closed {
		return nil, fmt.Errorf("client: result set closed")
	}
	if !rs.HasNext() {
		if rs.err != nil {
			return nil, rs.err
		}
		return nil, fmt.Errorf("client: past end of result set")
	}
	row := rs.row
	rs.row = nil
	return row, nil
}

// Close releases the result set. Before the stream's end it closes the
// response, which ends the request and cancels the query on the server.
// Closing an exhausted or already-closed result set is a no-op. Safe to
// defer immediately after ExecuteQuery.
func (rs *ResultSet) Close() error {
	if rs.closed {
		return nil
	}
	rs.closed = true
	rs.row = nil
	if rs.body != nil {
		rs.body.Close()
		rs.body = nil
	}
	return nil
}

// Err returns the error that ended the stream: the server's, from the
// terminal line, or a stream cut before its terminal line.
func (rs *ResultSet) Err() error { return rs.err }
