package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// settle flushes r and waits until the flusher's tier merges are done:
// the flush queue is empty, the region holds at most MaxTables tables,
// and no merge holds the build lock (so its retired tables are gone).
func settle(t *testing.T, r *region) {
	t.Helper()
	if err := r.flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.ioMu.Lock()
		r.mu.RLock()
		done := len(r.imm) == 0 && len(r.tables) <= r.opts.MaxTables
		r.mu.RUnlock()
		r.ioMu.Unlock()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("flusher did not settle")
		}
		time.Sleep(time.Millisecond)
	}
}

// tierCluster opens a Cluster whose region takes a tier merge after its
// fourth table: MaxTables 3 and a memtable no test here fills.
func tierCluster(t *testing.T, dir string) *Cluster {
	t.Helper()
	c, err := OpenCluster(dir, ClusterOptions{Options: Options{MemtableBytes: 8 << 20, MaxTables: 3}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// flushTable writes pairs (a nil value deletes) as one batch and flushes
// them into a table of their own.
func flushTable(t *testing.T, c *Cluster, pairs map[string][]byte) {
	t.Helper()
	var b WriteBatch
	for k, v := range pairs {
		if v == nil {
			b.Delete([]byte(k))
		} else {
			b.Put([]byte(k), v)
		}
	}
	if err := c.ApplyCtx(bg, &b); err != nil {
		t.Fatal(err)
	}
	settle(t, c.r)
}

// bigTable returns n keys with 1 KiB values, enough that three small
// tables stacked on it never outweigh it and a tier merge leaves it be.
func bigTable(n int) map[string][]byte {
	m := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		m[fmt.Sprintf("k-%04d", i)] = bytes.Repeat([]byte{'a'}, 1024)
	}
	return m
}

// fullScan reads every live pair of s.
func fullScan(t *testing.T, s Store) map[string]string {
	t.Helper()
	got := map[string]string{}
	if err := ScanRange(bg, s, KeyRange{}, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCompactionTierKeepsTombstones: a key put in the oldest table and
// deleted in a newer one stays deleted after a tier merge that leaves the
// oldest table alone — through Get, MultiGetCtx, a full scan and a
// reopen. The major compaction that follows drops the tombstone and the
// put together.
func TestCompactionTierKeepsTombstones(t *testing.T) {
	dir := t.TempDir()
	c := tierCluster(t, dir)
	defer func() { c.Close() }()
	const victim = "k-0042"
	flushTable(t, c, bigTable(200))
	oldest := c.r.tables[0]
	flushTable(t, c, map[string][]byte{victim: nil, "n-1": []byte("x")})
	flushTable(t, c, map[string][]byte{"n-2": []byte("x")})
	before := c.Metrics().Compactions
	flushTable(t, c, map[string][]byte{"n-3": []byte("x")})
	if c.Metrics().Compactions == before {
		t.Fatal("the fourth table triggered no tier merge")
	}

	check := func(when string) {
		t.Helper()
		if _, err := c.GetCtx(bg, []byte(victim)); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: Get(%s) err = %v, want ErrNotFound", when, victim, err)
		}
		vals, err := c.MultiGetCtx(bg, [][]byte{[]byte("k-0041"), []byte(victim)})
		if err != nil {
			t.Fatal(err)
		}
		if vals[0] == nil || vals[1] != nil {
			t.Errorf("%s: MultiGetCtx found live key %v, deleted key %v; want true, false", when, vals[0] != nil, vals[1] != nil)
		}
		got := fullScan(t, c)
		if _, ok := got[victim]; ok || len(got) != 202 {
			t.Errorf("%s: scan saw %d pairs, deleted key visible %v; want 202, false", when, len(got), ok)
		}
	}
	check("after tier merge")
	if len(c.r.tables) != 2 || c.r.tables[0] != oldest {
		t.Fatalf("after the tier merge: %d tables, oldest kept %v; want 2, true", len(c.r.tables), c.r.tables[0] == oldest)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c = tierCluster(t, dir)
	check("after reopen")

	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after major compaction")
	if len(c.r.tables) != 1 {
		t.Fatalf("after Compact: %d tables, want 1", len(c.r.tables))
	}
	it := c.r.tables[0].iter(KeyRange{})
	for it.Next() {
		if string(it.Key()) == victim {
			t.Fatalf("the merged table still holds %s (kind %d)", victim, it.entryKind())
		}
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

// TestCompactionTierNewestWinsAfterReopen: keys overwritten across
// tables read their newest value after tier merges and a reopen, so the
// merged table sits where its run was and the manifest lists tables in
// priority order.
func TestCompactionTierNewestWinsAfterReopen(t *testing.T) {
	dir := t.TempDir()
	c := tierCluster(t, dir)
	defer func() { c.Close() }()
	want := map[string]string{}
	put := func(m map[string][]byte) {
		flushTable(t, c, m)
		for k, v := range m {
			want[k] = string(v)
		}
	}
	put(bigTable(200))
	// Two rounds of three small tables, each overwriting keys of the big
	// table and of the tables before it. The first round's merged table
	// ends up between the big table and the second round's tables.
	for gen := 1; gen <= 6; gen++ {
		m := map[string][]byte{}
		for i := gen; i < 200; i += 7 {
			m[fmt.Sprintf("k-%04d", i)] = []byte(fmt.Sprintf("gen%d", gen))
		}
		for i := 0; i < 200; i += 13 {
			m[fmt.Sprintf("k-%04d", i)] = []byte(fmt.Sprintf("gen%d", gen))
		}
		put(m)
	}
	check := func(when string) {
		t.Helper()
		for k, v := range want {
			got, err := c.GetCtx(bg, []byte(k))
			if err != nil || string(got) != v {
				t.Fatalf("%s: Get(%s) = %.8q, %v; want %.8q", when, k, got, err, v)
			}
		}
		got := fullScan(t, c)
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: scan %s = %.8q, want %.8q", when, k, got[k], v)
			}
		}
	}
	check("after tier merges")
	if c.Metrics().Compactions < 2 || len(c.r.tables) < 2 {
		t.Fatalf("%d merges left %d tables; want at least 2 merges that keep the big table", c.Metrics().Compactions, len(c.r.tables))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c = tierCluster(t, dir)
	check("after reopen")
}

// TestCompactionTierModel runs seeded random puts, overwrites and
// deletes against a region with an 8 KiB memtable and MaxTables 3, so
// flushes and tier merges run all the time, reopening it now and then.
// After every step, Get of the step's keys and a full scan must match a
// map.
func TestCompactionTierModel(t *testing.T) {
	dir := t.TempDir()
	opts := Options{MemtableBytes: 8 << 10, MaxTables: 3, Codec: "lz4"}.withDefaults()
	cache := newBlockCache(64 << 10)
	open := func() *region {
		r, err := openRegion(0, dir, opts, cache, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := open()
	defer func() { r.Close() }()
	rng := rand.New(rand.NewSource(44))
	model := map[string]string{}
	for step := 0; step < 300; step++ {
		touched := make([]string, 0, 40)
		for op := 0; op < 40; op++ {
			k := fmt.Sprintf("key-%03d", rng.Intn(400))
			touched = append(touched, k)
			if rng.Intn(4) == 0 {
				if err := r.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
				continue
			}
			v := fmt.Sprintf("%d/%d/%s", step, op, bytes.Repeat([]byte{'v'}, rng.Intn(200)))
			if err := r.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
		for _, k := range touched {
			got, err := r.Get([]byte(k))
			want, live := model[k]
			if live && (err != nil || string(got) != want) || !live && !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: Get(%s) = %.12q, %v; want %.12q (live %v)", step, k, got, err, want, live)
			}
		}
		n := 0
		it := r.Scan(KeyRange{})
		for it.Next() {
			n++
			if want, ok := model[string(it.Key())]; !ok || want != string(it.Value()) {
				t.Fatalf("step %d: scan %s = %.12q, want %.12q (live %v)", step, it.Key(), it.Value(), want, ok)
			}
		}
		it.Close()
		if n != len(model) {
			t.Fatalf("step %d: scan saw %d keys, want %d", step, n, len(model))
		}
		if step%37 == 36 {
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			r = open()
		}
	}
}

// TestCompactionTierEvictsRetiredBlocks: once the last reference to a
// merged-away table is gone, none of its blocks stay in the block cache:
// at once after a compaction with no reader, and when the last reader
// that pinned the old tables closes.
func TestCompactionTierEvictsRetiredBlocks(t *testing.T) {
	cache := newBlockCache(8 << 20)
	r, err := openRegion(0, t.TempDir(), Options{MaxTables: 8}.withDefaults(), cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fill := func(gen int) {
		for i := 0; i < 2000; i++ {
			r.Put([]byte(fmt.Sprintf("k-%05d-%d", i, gen)), bytes.Repeat([]byte{'x'}, 40))
		}
		settle(t, r)
	}
	warm := func() {
		it := r.Scan(KeyRange{})
		for it.Next() {
		}
		it.Close()
	}
	cached := func(ts []*table) int {
		cache.mu.Lock()
		defer cache.mu.Unlock()
		n := 0
		for k := range cache.items {
			for _, t := range ts {
				if k.table == t.id {
					n++
				}
			}
		}
		return n
	}

	fill(0)
	fill(1)
	warm()
	old := append([]*table(nil), r.tables...)
	if cached(old) == 0 {
		t.Fatal("warming scan cached no blocks")
	}
	if err := r.compact(); err != nil {
		t.Fatal(err)
	}
	if n := cached(old); n != 0 {
		t.Fatalf("%d blocks of retired tables still cached after a compaction with no reader", n)
	}

	fill(2)
	warm()
	old = append([]*table(nil), r.tables...)
	reader := r.Scan(KeyRange{})
	if err := r.compact(); err != nil {
		t.Fatal(err)
	}
	for reader.Next() { // reads the retired tables, caching their blocks again
	}
	reader.Close()
	if n := cached(old); n != 0 {
		t.Fatalf("%d blocks of retired tables still cached after the last reader closed", n)
	}
}
