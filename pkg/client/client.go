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
// the server's page size; HasNext reads the next line through a pooled
// bufio.Reader. A scanner parses the row lines as the server writes them
// into the values json.Unmarshal yields, each slice at its final length;
// every other line goes to json.Unmarshal itself. Close on a result not
// read to its end closes the response, which cancels the query on the
// server.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
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
	return newResultSet(resp.Body)
}

// newResultSet reads the header of a result stream.
func newResultSet(body io.ReadCloser) (*ResultSet, error) {
	rs := &ResultSet{body: body, r: readers.Get().(*lineReader)}
	rs.r.Reset(body)
	var hdr streamLine
	line, err := rs.r.line()
	if err == nil {
		err = json.Unmarshal(line, &hdr)
	}
	if err != nil {
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
	// Read to the end, so the connection serves the next request.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
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
	r       *lineReader   // reads body; back in the pool once body is nil
	row     []any         // the row HasNext read ahead, nil if none
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
	var v any
	line, err := rs.r.line()
	if err == nil {
		if rs.row = rs.r.row(line); rs.row != nil {
			return true
		}
		err = json.Unmarshal(line, &v)
	}
	if err != nil {
		rs.err = fmt.Errorf("client: result stream ended without its terminal line: %w", err)
		rs.finish()
		return false
	}
	switch x := v.(type) {
	case []any:
		rs.row = x
		return true
	case map[string]any:
		if msg, ok := x["error"].(string); ok {
			rs.err = fmt.Errorf("client: server error: %s", msg)
		}
	default:
		rs.err = fmt.Errorf("client: bad result line %v", x)
	}
	rs.finish()
	return false
}

// finish reads the response to its end, so the connection can serve the
// next request, and closes it.
func (rs *ResultSet) finish() {
	io.Copy(io.Discard, rs.body)
	rs.release()
}

// release closes the response and returns its reader to the pool.
func (rs *ResultSet) release() {
	rs.body.Close()
	rs.body = nil
	rs.r.Reset(nil)
	readers.Put(rs.r)
	rs.r = nil
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
		rs.release()
	}
	return nil
}

// Err returns the error that ended the stream: the server's, from the
// terminal line, or a stream cut before its terminal line.
func (rs *ResultSet) Err() error { return rs.err }

// readers pools the line readers of finished result sets: a 64 KiB
// buffer per statement would cost more than a short result's rows.
var readers = sync.Pool{New: func() any { return &lineReader{Reader: bufio.NewReaderSize(nil, 64<<10)} }}

// lineReader reads a result stream line by line and parses row lines.
type lineReader struct {
	*bufio.Reader
	b     []byte // the line being parsed
	i     int    // its next unread byte
	stack []any  // elements of the open arrays, copied out at exact length
}

// line returns the next line without its '\n', valid until the next
// call. A last line without '\n' counts; a stream ending at a line
// boundary returns io.EOF.
func (r *lineReader) line() ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull { // longer than the buffer
		head := bytes.Clone(line)
		line, err = r.ReadBytes('\n')
		line = append(head, line...)
	}
	if err == io.EOF && len(line) > 0 {
		err = nil
	}
	return bytes.TrimSuffix(line, []byte{'\n'}), err
}

// row parses a row line, or returns nil where the line leaves the subset
// of JSON the scanner accepts: no whitespace, no string with an escape,
// a control byte or invalid UTF-8, at most 16 levels of nesting. In the
// subset a row reads as json.Unmarshal reads it.
func (r *lineReader) row(line []byte) []any {
	r.b, r.i, r.stack = line, 0, r.stack[:0]
	if len(line) > 0 && line[0] == '[' {
		if row, _, ok := r.list(1); ok && r.i == len(line) {
			return row
		}
	}
	return nil
}

func (r *lineReader) value(depth int) (any, bool) {
	if r.i >= len(r.b) || depth > 16 {
		return nil, false
	}
	switch r.b[r.i] {
	case '[', '{':
		a, m, ok := r.list(depth + 1)
		if m != nil {
			return m, ok
		}
		return a, ok
	case '"':
		s, ok := r.str()
		return s, ok
	case 't':
		return true, r.literal("true")
	case 'f':
		return false, r.literal("false")
	case 'n':
		return nil, r.literal("null")
	}
	return r.number()
}

// list parses an array into a slice of its exact length, its elements
// gathered on the stack first, or an object into a map.
func (r *lineReader) list(depth int) ([]any, map[string]any, bool) {
	var m map[string]any
	if r.b[r.i] == '{' {
		m = map[string]any{}
	}
	end, mark := r.b[r.i]+2, len(r.stack) // ']' or '}'
	r.i++
	for n := 0; !r.next(end); n++ {
		k, ok := "", n == 0 || r.next(',')
		if ok && m != nil {
			k, ok = r.str()
			ok = ok && r.next(':')
		}
		v, vok := r.value(depth)
		if !ok || !vok {
			return nil, nil, false
		}
		if m != nil {
			m[k] = v
		} else {
			r.stack = append(r.stack, v)
		}
	}
	if m != nil {
		return nil, m, true
	}
	row := append(make([]any, 0, len(r.stack)-mark), r.stack[mark:]...)
	clear(r.stack[mark:])
	r.stack = r.stack[:mark]
	return row, nil, true
}

// str parses a string that encoding/json keeps byte for byte.
func (r *lineReader) str() (string, bool) {
	if !r.next('"') {
		return "", false
	}
	for i := r.i; i < len(r.b) && r.b[i] >= 0x20 && r.b[i] != '\\'; i++ {
		if r.b[i] == '"' {
			s := r.b[r.i:i]
			r.i = i + 1
			if string(s) == "wkt" { // every geometry's key
				return "wkt", true
			}
			return string(s), utf8.Valid(s)
		}
	}
	return "", false
}

// next consumes c if the line continues with it.
func (r *lineReader) next(c byte) bool {
	ok := r.i < len(r.b) && r.b[r.i] == c
	if ok {
		r.i++
	}
	return ok
}

// literal consumes lit if the line continues with it.
func (r *lineReader) literal(lit string) bool {
	ok := bytes.HasPrefix(r.b[r.i:], []byte(lit))
	if ok {
		r.i += len(lit)
	}
	return ok
}

// number parses a number in JSON's grammar that ParseFloat accepts.
// Without an exponent, up to 15 digits are exact in a float64, as is
// 10^-k for k ≤ 15: their quotient rounds once, as ParseFloat's does.
func (r *lineReader) number() (any, bool) {
	b, start := r.b, r.i
	i := start
	if b[i] == '-' {
		i++
	}
	j, mant := digits(b, i, 0)
	if j == i || j > i+1 && b[i] == '0' {
		return nil, false
	}
	nd, frac := j-i, 0
	if j < len(b) && b[j] == '.' {
		k, m := digits(b, j+1, mant)
		nd, frac, mant, j = nd+k-j-1, k-j-1, m, k
		if frac == 0 {
			return nil, false
		}
	}
	if j < len(b) && b[j]|0x20 == 'e' {
		k := j + 1
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		if j, _ = digits(b, k, 0); j == k {
			return nil, false
		}
		nd = 99 // left to ParseFloat
	}
	r.i = j
	if nd > 15 {
		f, err := strconv.ParseFloat(string(b[start:j]), 64)
		return f, err == nil
	}
	f := float64(mant) / pow10[frac]
	if b[start] == '-' {
		f = -f
	}
	return f, true
}

var pow10 = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// digits reads the run of decimal digits at b[i:] into mant.
func digits(b []byte, i int, mant uint64) (int, uint64) {
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	return i, mant
}
