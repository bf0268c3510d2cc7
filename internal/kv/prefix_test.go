package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
)

// Prefix-summary tests: a table passes over a range whose bounds share a
// prefix of a family it summarised and does not hold, and only then.

// pfxLen is the prefix length of the test family "f": the family byte,
// a shard letter and a period digit.
const pfxLen = 3

// pfxKey is key i under shard s and period p of family "f".
func pfxKey(s, p, i int) []byte { return []byte(fmt.Sprintf("f%c%d%04d", 'a'+s, p, i)) }

// pfxRange is the whole of (shard, period)'s prefix: its bounds share it.
func pfxRange(s, p int) KeyRange {
	k := pfxKey(s, p, 0)[:pfxLen]
	return KeyRange{Start: k, End: append(bytes.Clone(k), 0xff)}
}

// pfxRegion is a region over a registry, and the map model of its pairs.
type pfxRegion struct {
	r     *region
	g     *registry
	met   *Metrics
	model map[string][]byte
}

func newPfxRegion(t *testing.T) *pfxRegion {
	t.Helper()
	g := registryOf([]byte("f"), KeyFamily{PrefixLen: pfxLen})
	met := &Metrics{}
	opts := Options{families: g, FlushQueue: 100, MaxTables: 100}.withDefaults()
	r, err := openRegion(0, t.TempDir(), opts, newBlockCache(1<<20), met)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return &pfxRegion{r: r, g: g, met: met, model: map[string][]byte{}}
}

func (p *pfxRegion) put(t *testing.T, k []byte) {
	t.Helper()
	v := []byte(fmt.Sprintf("v%d-%s", len(p.model), k))
	if err := p.r.Put(k, v); err != nil {
		t.Fatal(err)
	}
	p.model[string(k)] = v
}

func (p *pfxRegion) del(t *testing.T, k []byte) {
	t.Helper()
	if err := p.r.Delete(k); err != nil {
		t.Fatal(err)
	}
	delete(p.model, string(k))
}

func (p *pfxRegion) flush(t *testing.T) {
	t.Helper()
	if err := p.r.flush(); err != nil {
		t.Fatal(err)
	}
}

// install writes a table through w's build and adds it to the region as
// its newest, as a flush would.
func (p *pfxRegion) install(t *testing.T, tw *tableWriter) *table {
	t.Helper()
	if _, err := tw.finish(); err != nil {
		t.Fatal(err)
	}
	tb, err := openTable(p.r.fs, tw.path, p.r.cache, p.met)
	if err != nil {
		t.Fatal(err)
	}
	p.r.mu.Lock()
	p.r.tables = append(p.r.tables, tb)
	p.r.mu.Unlock()
	return tb
}

// scanPairsOf collects kr's pairs through region.Scan.
func scanPairsOf(t *testing.T, r *region, kr KeyRange) []pair {
	t.Helper()
	var out []pair
	it := r.Scan(kr)
	defer it.Close()
	for it.Next() {
		out = append(out, pair{bytes.Clone(it.Key()), bytes.Clone(it.Value())})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// check scans every range three ways: through region.Scan, through one
// snapshot seeking from range to range, and through region.Scan with
// every table's summary hidden. All three must yield exactly the
// model's pairs in the range. It returns the table seeks the summaries
// proved empty.
func (p *pfxRegion) check(t *testing.T, ranges []KeyRange) int64 {
	t.Helper()
	before := atomic.LoadInt64(&p.met.TablesSkipped)
	run := p.r.snapshot()
	defer run.Close()
	for _, kr := range ranges {
		var want []pair
		for k, v := range p.model {
			if kr.Contains([]byte(k)) {
				want = append(want, pair{[]byte(k), v})
			}
		}
		sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i].key, want[j].key) < 0 })

		var seek []pair
		run.seek(kr)
		for run.Next() {
			seek = append(seek, pair{bytes.Clone(run.Key()), bytes.Clone(run.Value())})
		}
		if err := run.Err(); err != nil {
			t.Fatal(err)
		}
		// No flush or merge runs here, so the tables stay as listed.
		p.r.mu.RLock()
		tables := append([]*table(nil), p.r.tables...)
		p.r.mu.RUnlock()
		hidden := make([][]summary, len(tables))
		for i, tb := range tables {
			hidden[i], tb.sums = tb.sums, nil
		}
		off := scanPairsOf(t, p.r, kr)
		for i, tb := range tables {
			tb.sums = hidden[i]
		}
		for name, got := range map[string][]pair{"region.Scan": scanPairsOf(t, p.r, kr), "run": seek, "summary off": off} {
			if !samePairs(got, want) {
				t.Fatalf("%s of %s yields %d pairs, the model holds %d (or other ones)", name, showRange(kr), len(got), len(want))
			}
		}
	}
	return atomic.LoadInt64(&p.met.TablesSkipped) - before
}

func samePairs(a, b []pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].key, b[i].key) || !bytes.Equal(a[i].value, b[i].value) {
			return false
		}
	}
	return true
}

// sharedRanges are ranges whose bounds share a full prefix: every
// (shard, period) whole, and a slice inside each.
func sharedRanges() []KeyRange {
	var out []KeyRange
	for s := 0; s < 4; s++ {
		for p := 0; p < 4; p++ {
			out = append(out, pfxRange(s, p), KeyRange{Start: pfxKey(s, p, 10), End: pfxKey(s, p, 30)})
		}
	}
	return out
}

// crossRanges are ranges whose bounds share no full prefix: across
// periods and shards, open-ended, a start shorter than the prefix, and
// keys outside the family.
func crossRanges() []KeyRange {
	return []KeyRange{
		{Start: pfxKey(0, 1, 20), End: pfxKey(0, 2, 20)},
		{Start: pfxKey(0, 1, 0)[:pfxLen], End: pfxKey(0, 2, 0)[:pfxLen]},
		{Start: pfxKey(1, 1, 5), End: pfxKey(2, 0, 5)},
		{Start: pfxKey(2, 1, 0)},
		{End: pfxKey(1, 2, 0)},
		{Start: []byte("fb"), End: pfxKey(1, 1, 40)},
		{Start: []byte("e"), End: []byte("fa")},
		{Start: []byte("g"), End: []byte("h")},
		{},
	}
}

func TestPrefixSummarySkipsOnlyAbsentPrefixes(t *testing.T) {
	p := newPfxRegion(t)
	// Time-disjoint tables: the older holds periods 0 and 1 of every
	// shard, the newer periods 2 and 3. Their key spans interleave, so
	// only the summaries can pass one over.
	for _, periods := range [][]int{{0, 1}, {2, 3}} {
		for s := 0; s < 4; s++ {
			for _, per := range periods {
				for i := 0; i < 50; i += 2 {
					p.put(t, pfxKey(s, per, i))
				}
			}
		}
		p.flush(t)
	}
	// A tombstone under a prefix only this newer table holds: (shard 1,
	// period 1) is otherwise in the oldest table alone.
	p.del(t, pfxKey(1, 1, 10))
	p.del(t, pfxKey(1, 1, 12))
	p.put(t, pfxKey(3, 3, 7))
	p.flush(t)
	if n := p.check(t, sharedRanges()); n == 0 {
		t.Fatal("no range passed over a table by its summary")
	}
	if n := p.check(t, crossRanges()); n != 0 {
		t.Fatalf("%d tables passed over for ranges whose bounds share no prefix", n)
	}

	// A family registered while a table is being built: the build read
	// the registry when it began, so the table summarises no "g" key,
	// neither those added before nor those added after the registration.
	tw, err := newTableWriter(p.r.fs, filepath.Join(p.r.dir, "mid.sst"), blockCodecNone, p.g.snapshot(), 0)
	if err != nil {
		t.Fatal(err)
	}
	gkey := func(s, i int) []byte { return []byte(fmt.Sprintf("g%c0%04d", 'a'+s, i)) }
	addTo := func(k []byte) {
		v := []byte("mid")
		if err := tw.add(k, v, kindPut); err != nil {
			t.Fatal(err)
		}
		p.model[string(k)] = v
	}
	addTo(gkey(0, 1))
	p.g.register([]byte("g"), KeyFamily{PrefixLen: pfxLen})
	addTo(gkey(1, 1))
	mid := p.install(t, tw)
	if len(mid.sums) != 1 || !bytes.Equal(mid.sums[0].prefix, []byte("f")) {
		t.Fatalf("the table built across the registration summarises %d families", len(mid.sums))
	}
	p.check(t, []KeyRange{{Start: gkey(0, 0), End: gkey(0, 9)}, {Start: gkey(1, 0), End: gkey(1, 9)}})

	// A table built while "g" is registered summarises it, so a "g" range
	// passes over the tables that lack its prefix.
	p.put(t, gkey(2, 1))
	p.put(t, pfxKey(0, 0, 3))
	p.flush(t)
	if n := p.check(t, []KeyRange{{Start: gkey(0, 0), End: gkey(0, 9)}, {Start: gkey(2, 0), End: gkey(2, 9)}}); n == 0 {
		t.Fatal("a registered family's ranges passed over no table")
	}

	// An older-format table: built with no family, it has no summary
	// section and is never passed over.
	tw, err = newTableWriter(p.r.fs, filepath.Join(p.r.dir, "old.sst"), blockCodecNone, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	addTo(pfxKey(2, 2, 1))
	addTo(pfxKey(3, 1, 1))
	old := p.install(t, tw)
	if old.sums != nil || !bytes.HasSuffix(tw.encodeIndex(), old.lastKey) {
		t.Fatal("a table built with no family carries a summary section")
	}
	p.check(t, sharedRanges())

	// A dropped family: the next table summarises "f" no more, and is
	// never passed over for "f" ranges; older tables still are.
	p.g.register([]byte("f"), KeyFamily{})
	p.put(t, pfxKey(0, 3, 1))
	p.del(t, pfxKey(2, 0, 4))
	p.flush(t)
	p.r.mu.RLock()
	newest := p.r.tables[len(p.r.tables)-1]
	p.r.mu.RUnlock()
	for _, s := range newest.sums {
		if bytes.Equal(s.prefix, []byte("f")) {
			t.Fatal("a table built after the drop summarises the dropped family")
		}
	}
	if n := p.check(t, sharedRanges()); n == 0 {
		t.Fatal("the older tables' summaries stopped passing them over")
	}
	if n := p.check(t, crossRanges()); n != 0 {
		t.Fatalf("%d tables passed over for ranges whose bounds share no prefix", n)
	}

	// A merge of every table keeps exactly the prefixes its inputs hold.
	if err := p.r.compact(); err != nil {
		t.Fatal(err)
	}
	p.check(t, sharedRanges())
	p.check(t, crossRanges())
}

// TestNestedFamiliesAreNotSummarised: a key under two nested family
// prefixes counts to one family only, so neither is summarised.
func TestNestedFamiliesAreNotSummarised(t *testing.T) {
	fams := []KeyFamily{
		{prefix: []byte("f"), PrefixLen: 3},
		{prefix: []byte("fa"), PrefixLen: 4},
		{prefix: []byte("g"), PrefixLen: 3},
		{prefix: []byte("h"), PrefixLen: 1},
	}
	sums := newSummaries(fams)
	for i, want := range []int{0, 0, 3, 0} {
		if sums[i].plen != want {
			t.Fatalf("family %q summarised with length %d, want %d", fams[i].prefix, sums[i].plen, want)
		}
	}
}

// indexWriter builds a writer's index from fuzz bytes without a file:
// block handles with arbitrary fields, a last key, and up to two
// summarised families over random keys.
func indexWriter(data []byte) *tableWriter {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	take := func(n int) []byte {
		out := make([]byte, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, next())
		}
		return out
	}
	tw := &tableWriter{}
	for n := int(next() % 6); n > 0; n-- {
		h := blockHandle{firstKey: take(int(next() % 12)), offset: uint64(next()) << (next() % 56),
			length: uint32(next()) << 20, rawLen: uint32(next()), crc: uint32(next()) << 24,
			codec: next() % 4, hasZone: next()%2 == 0}
		if h.hasZone {
			h.zmin, h.zmax = -int64(next())<<40, int64(next())
		}
		tw.index = append(tw.index, h)
	}
	tw.lastKey = take(int(next() % 12))
	var fams []KeyFamily
	for n := int(next() % 3); n > 0; n-- {
		prefix := append([]byte{byte('a' + len(fams))}, take(int(next()%3))...)
		fams = append(fams, KeyFamily{prefix: prefix, PrefixLen: len(prefix) + 1 + int(next()%4)})
	}
	tw.sums = newSummaries(fams)
	for i, f := range fams {
		var keys [][]byte
		for n := int(next() % 20); n > 0; n-- {
			keys = append(keys, append(bytes.Clone(f.prefix), take(int(next()%6))...))
		}
		sort.Slice(keys, func(a, b int) bool { return bytes.Compare(keys[a], keys[b]) < 0 })
		for _, k := range keys {
			tw.sums[i].add(k)
		}
	}
	return tw
}

// FuzzDecodeIndex: arbitrary bytes decode to an index or ErrCorrupt and
// never panic; a writer's index round-trips; every cut of it is
// ErrCorrupt, except a cut at the start of its summary section, which
// reads as a table with no summary.
func FuzzDecodeIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 'a', 'b', 'c', 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 4, 'z', 'z', 'z', 'z', 2, 1, 2, 5, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{5, 11, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 1, 9, 2, 0, 2, 19, 5})
	f.Add(indexWriter([]byte{3, 4, 'k', 'e', 'y', 's', 1, 2, 3, 4, 5, 6, 0, 9, 2, 1, 1, 8, 5, 1, 2, 3, 4, 5}).encodeIndex())
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, _, err := decodeIndex(data); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("arbitrary bytes: %v, want ErrCorrupt", err)
		}
		tw := indexWriter(data)
		enc := tw.encodeIndex()
		index, lastKey, sums, err := decodeIndex(enc)
		if err != nil {
			t.Fatalf("writer output does not decode: %v", err)
		}
		again := (&tableWriter{index: index, lastKey: lastKey, sums: sums}).encodeIndex()
		if !bytes.Equal(again, enc) || len(index) != len(tw.index) {
			t.Fatalf("writer output does not round-trip: %x decodes and re-encodes to %x", enc, again)
		}
		for _, s := range tw.sums {
			for _, v := range s.tails {
				k := append(bytes.Clone(s.prefix), binary.BigEndian.AppendUint64(nil, v)[8-s.plen+len(s.prefix):]...)
				kr := KeyRange{Start: k, End: append(bytes.Clone(k), 0xff)}
				if (&table{sums: sums}).lacks(kr) {
					t.Fatalf("the decoded summary lacks %x, which the writer recorded", k)
				}
			}
		}
		section := len((&tableWriter{index: tw.index, lastKey: tw.lastKey}).encodeIndex())
		for n := 0; n < len(enc); n++ {
			_, _, s, err := decodeIndex(enc[:n])
			if n == section {
				if err != nil || s != nil {
					t.Fatalf("cut at the summary section: %v, %d summaries; want a table with none", err, len(s))
				}
				continue
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut at %d of %d bytes: %v, want ErrCorrupt", n, len(enc), err)
			}
		}
	})
}

// BenchmarkSeekSummary prices one seek of a merge over one table: a
// table with no summary, one whose summary holds the range's prefix
// (the check runs, then the seek), and one whose summary lacks it (the
// table is passed over).
func BenchmarkSeekSummary(b *testing.B) {
	for _, bc := range []struct {
		name   string
		fam    KeyFamily
		period int
	}{
		{"none", KeyFamily{}, 1},
		{"summary-holds", KeyFamily{PrefixLen: pfxLen}, 1},
		{"summary-lacks", KeyFamily{PrefixLen: pfxLen}, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := Options{families: registryOf([]byte("f"), bc.fam), FlushQueue: 100, MaxTables: 100}.withDefaults()
			r, err := openRegion(0, b.TempDir(), opts, newBlockCache(1<<20), &Metrics{})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			// Periods 0, 1 and 3 of 64 shards, 40 keys each: the table's
			// span covers period 2's ranges, which only a summary passes.
			key := func(s, p, i int) []byte { return fmt.Appendf([]byte{'f', byte(s), byte('0' + p)}, "%04d", i) }
			for s := 0; s < 64; s++ {
				for _, p := range []int{0, 1, 3} {
					for i := 0; i < 40; i++ {
						if err := r.Put(key(s, p, i), []byte("value")); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			if err := r.flush(); err != nil {
				b.Fatal(err)
			}
			kr := KeyRange{Start: key(30, bc.period, 10), End: key(30, bc.period, 12)}
			it := r.snapshot()
			defer it.recycle()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it.seek(kr)
				for it.Next() {
				}
			}
		})
	}
}
