package table

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"just/internal/exec"
)

// View is a named in-memory DataFrame — the cached query result of
// CREATE VIEW (Section IV-D): "one query, multiple usages". The frame
// holds the result's column batches as the query produced them; queries
// over the view read those batches in place (DataFrame.Bound) and never
// write to them.
type View struct {
	Name      string
	User      string
	Frame     *exec.DataFrame
	CreatedAt time.Time
	lastUsed  time.Time
}

// Views is the registry of live view tables with session-timeout
// eviction ("once the user sessions are time out, their view tables
// would be cleared up from the memory").
type Views struct {
	mu  sync.Mutex
	m   map[string]*View
	ttl time.Duration
	now func() time.Time // injectable clock for tests
}

// NewViews creates a registry; ttl <= 0 disables expiry.
func NewViews(ttl time.Duration) *Views {
	return &Views{m: map[string]*View{}, ttl: ttl, now: time.Now}
}

// Put registers (or replaces) a view, releasing any frame it replaces.
func (v *Views) Put(user, name string, df *exec.DataFrame) {
	v.mu.Lock()
	defer v.mu.Unlock()
	qn := QualifiedName(user, name)
	if old, ok := v.m[qn]; ok {
		old.Frame.Release()
	}
	now := v.now()
	v.m[qn] = &View{Name: name, User: user, Frame: df, CreatedAt: now, lastUsed: now}
}

// Get fetches a view and refreshes its idle timer.
func (v *Views) Get(user, name string) (*View, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.evictLocked()
	if view, ok := v.m[QualifiedName(user, name)]; ok {
		view.lastUsed = v.now()
		return view, nil
	}
	return nil, fmt.Errorf("%w: view %s", ErrNoTable, name)
}

// Drop removes a view and releases its memory.
func (v *Views) Drop(user, name string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	qn := QualifiedName(user, name)
	view, ok := v.m[qn]
	if !ok {
		return fmt.Errorf("%w: view %s", ErrNoTable, name)
	}
	view.Frame.Release()
	delete(v.m, qn)
	return nil
}

// List returns the user's view names (SHOW VIEWS), sorted.
func (v *Views) List(user string) []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.evictLocked()
	var out []string
	for _, view := range v.m {
		if view.User == user {
			out = append(out, view.Name)
		}
	}
	sort.Strings(out)
	return out
}

// evictLocked drops views idle past the TTL.
func (v *Views) evictLocked() {
	if v.ttl <= 0 {
		return
	}
	cutoff := v.now().Add(-v.ttl)
	for qn, view := range v.m {
		if view.lastUsed.Before(cutoff) {
			view.Frame.Release()
			delete(v.m, qn)
		}
	}
}
