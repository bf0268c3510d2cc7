package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// Differential tests of the seeking run: one region snapshot serving a
// run of ranges through one merge, checked against a map model of the
// region and against a fresh region.Scan per range.

// modelKeys is the key space of a scan fixture; every other key is
// written, so the odd ones fall between stored keys.
const modelKeys = 1200

func modelKey(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }

// scanFixture is a region holding three SSTables, a frozen memtable and
// an active memtable, with shadowed versions and tombstones across
// them, and the map model of what it holds.
type scanFixture struct {
	r     *region
	model map[string][]byte // live pairs; deleted keys are absent
	live  []string          // the model's keys, sorted
}

// newScanFixture builds a fixture in dir. Values carry a record time
// (zoneValue) and ~16 fit a 4 KiB block. The oldest table holds every
// stored key at time = its index, so zone maps are selective. The
// second table rewrites a contiguous span far outside any window near
// the first times: its blocks are prunable, but the oldest table holds
// in-window versions of the same keys, so the zone veto must refuse
// those skips. The rest is random puts and deletes.
func newScanFixture(tb testing.TB, dir string, seed int64) *scanFixture {
	tb.Helper()
	fx, b := openScanFixture(tb, dir, seed, registryOf(nil, KeyFamily{Zone: testZoneExtractor}))
	for i := 0; i < modelKeys; i += 2 {
		b.put(i, int64(i))
	}
	b.flush()
	lo := 2 * b.rng.Intn(modelKeys/4)
	for i := lo; i < lo+modelKeys/4; i += 2 {
		b.put(i, int64(100*modelKeys+i))
	}
	b.random(40)
	b.flush()
	b.random(150)
	b.flush()
	b.finish(3)
	return fx
}

// summaryPrefixLen is the prefix length of the summary fixture's family:
// "k" and the first three digits, so each hundred keys share a prefix.
const summaryPrefixLen = 4

// newSummaryFixture builds a fixture whose key family carries a prefix
// length, so every table has a prefix summary. Three tables hold every
// third hundred keys each: their key spans overlap, their prefixes do
// not, so most ranges within a hundred pass over two of them. A fourth
// table holds tombstones, under the first hundred (which only it and
// the oldest table hold) only tombstones, then random puts and deletes.
func newSummaryFixture(tb testing.TB, dir string, seed int64) *scanFixture {
	tb.Helper()
	fam := KeyFamily{Zone: testZoneExtractor, PrefixLen: summaryPrefixLen}
	fx, b := openScanFixture(tb, dir, seed, registryOf([]byte("k"), fam))
	for part := 0; part < 3; part++ {
		for i := 0; i < modelKeys; i += 2 {
			if (i/100)%3 == part {
				b.put(i, int64(i))
			}
		}
		b.flush()
	}
	for i := 0; i < 100; i += 4 {
		b.del(i)
	}
	b.flush()
	b.finish(4)
	return fx
}

// fixtureBuilder writes a fixture's region and its model together.
type fixtureBuilder struct {
	tb  testing.TB
	fx  *scanFixture
	rng *rand.Rand
}

// openScanFixture opens an empty fixture region over fams.
func openScanFixture(tb testing.TB, dir string, seed int64, fams *registry) (*scanFixture, *fixtureBuilder) {
	opts := Options{families: fams, FlushQueue: 100, MaxTables: 100}.withDefaults()
	r, err := openRegion(0, dir, opts, newBlockCache(1<<20), &Metrics{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	fx := &scanFixture{r: r, model: map[string][]byte{}}
	return fx, &fixtureBuilder{tb: tb, fx: fx, rng: rand.New(rand.NewSource(seed))}
}

func (b *fixtureBuilder) put(i int, t int64) {
	v := zoneValue(t, 240)
	if err := b.fx.r.Put(modelKey(i), v); err != nil {
		b.tb.Fatal(err)
	}
	b.fx.model[string(modelKey(i))] = v
}

func (b *fixtureBuilder) del(i int) {
	if err := b.fx.r.Delete(modelKey(i)); err != nil {
		b.tb.Fatal(err)
	}
	delete(b.fx.model, string(modelKey(i)))
}

// random writes n puts and deletes of random stored keys.
func (b *fixtureBuilder) random(n int) {
	for j := 0; j < n; j++ {
		i := 2 * b.rng.Intn(modelKeys/2)
		if b.rng.Intn(4) == 0 {
			b.del(i)
		} else {
			b.put(i, b.rng.Int63n(2*modelKeys))
		}
	}
}

func (b *fixtureBuilder) flush() {
	if err := b.fx.r.flush(); err != nil {
		b.tb.Fatal(err)
	}
}

// finish adds a frozen and an active memtable of random writes, checks
// the region holds the given number of tables, and sorts the model.
func (b *fixtureBuilder) finish(tables int) {
	r := b.fx.r
	// The frozen memtable stays on the queue while the flusher is parked.
	pauseFlusher(r, true)
	b.tb.Cleanup(func() { pauseFlusher(r, false) })
	b.random(80)
	b.flush()
	b.random(60)
	if len(r.tables) != tables || len(r.imm) != 1 || r.mem.count == 0 {
		b.tb.Fatalf("fixture holds %d tables, %d frozen memtables, %d active entries; want %d, 1, >0", len(r.tables), len(r.imm), r.mem.count, tables)
	}
	for k := range b.fx.model {
		b.fx.live = append(b.fx.live, k)
	}
	sort.Strings(b.fx.live)
}

// scanRunCheck scans run through one snapshot (see checkMergeRun).
func scanRunCheck(tb testing.TB, fx *scanFixture, run []KeyRange) {
	tb.Helper()
	it := fx.r.snapshot()
	defer it.Close()
	checkMergeRun(tb, fx, it, run)
}

// checkMergeRun scans run through the merge it and requires:
//   - the run yields what a fresh region.Scan of each range yields;
//   - each range yields only live pairs of the model inside it, in key
//     order, each once;
//   - each range yields every live pair of the model inside it whose
//     record time meets the range's zone (zones prune, they never hide).
func checkMergeRun(tb testing.TB, fx *scanFixture, it *mergeIter, run []KeyRange) {
	tb.Helper()
	for ri, kr := range run {
		var got, fresh []pair
		it.seek(kr)
		for it.Next() {
			got = append(got, pair{bytes.Clone(it.Key()), bytes.Clone(it.Value())})
		}
		if err := it.Err(); err != nil {
			tb.Fatalf("range %d: %v", ri, err)
		}
		one := fx.r.Scan(kr)
		for one.Next() {
			fresh = append(fresh, pair{bytes.Clone(one.Key()), bytes.Clone(one.Value())})
		}
		one.Close()
		same := len(got) == len(fresh)
		for i := 0; same && i < len(got); i++ {
			same = bytes.Equal(got[i].key, fresh[i].key) && bytes.Equal(got[i].value, fresh[i].value)
		}
		if !same {
			tb.Fatalf("range %d %s: the run yields %d pairs, region.Scan %d, or other ones", ri, showRange(kr), len(got), len(fresh))
		}
		yielded := map[string]bool{}
		for i, p := range got {
			if i > 0 && bytes.Compare(got[i-1].key, p.key) >= 0 {
				tb.Fatalf("range %d %s: %q after %q", ri, showRange(kr), p.key, got[i-1].key)
			}
			if want, ok := fx.model[string(p.key)]; !ok || !kr.Contains(p.key) || !bytes.Equal(want, p.value) {
				tb.Fatalf("range %d %s: yields %q at time %d, which the model does not hold there", ri, showRange(kr), p.key, zoneTime(p.value))
			}
			yielded[string(p.key)] = true
		}
		for _, k := range fx.live[sort.SearchStrings(fx.live, string(kr.Start)):] {
			if !kr.Contains([]byte(k)) {
				break
			}
			z := zoneTime(fx.model[k])
			if (!kr.Zoned || (z >= kr.ZMin && z <= kr.ZMax)) && !yielded[k] {
				tb.Fatalf("range %d %s: misses %q at time %d", ri, showRange(kr), k, z)
			}
		}
	}
}

func showRange(kr KeyRange) string {
	s := fmt.Sprintf("[%q, %q)", kr.Start, kr.End)
	if kr.Zoned {
		s += fmt.Sprintf(" zone [%d, %d]", kr.ZMin, kr.ZMax)
	}
	return s
}

// decodeRun turns fuzz bytes into a run of ranges sharing one zone, the
// shape an OpScan carries. The first two bytes pick the zone; then each
// three bytes make a range: flags, a gap from the previous range's end
// and a length, both in key steps. Flags: bit 0 starts the range between
// stored keys, bit 1 ends it between them, bit 2 makes it empty, bit 3
// jumps back before the previous range, bit 4 opens the first range's
// start, bit 5 opens the last range's end.
func decodeRun(data []byte) []KeyRange {
	if len(data) < 2 {
		return nil
	}
	var zone KeyRange
	if data[0]&1 != 0 {
		zone.Zoned = true
		zone.ZMin = int64(data[0]>>1) * modelKeys / 64
		zone.ZMax = zone.ZMin + int64(data[1])*modelKeys/256
		if data[0]&0x80 != 0 {
			zone.ZMin, zone.ZMax = 100*modelKeys, 100*modelKeys+modelKeys/4
		}
	}
	var run []KeyRange
	var flags byte
	pos := 0
	data = data[2:]
	for len(data) >= 3 && len(run) < 64 {
		var gap, n int
		flags, gap, n = data[0], int(data[1]), int(data[2])%48
		data = data[3:]
		if flags&8 != 0 {
			pos = max(pos-gap*4, 0)
		} else {
			pos += gap % 64
		}
		kr := zone
		kr.Start = modelKey(pos)
		if flags&1 != 0 {
			kr.Start = append(kr.Start, 'x')
		}
		end := pos + n
		if flags&4 != 0 {
			end = pos
		}
		kr.End = modelKey(end)
		if flags&2 != 0 {
			kr.End = append(kr.End, 'x')
		}
		if flags&16 != 0 && len(run) == 0 {
			kr.Start = nil
		}
		run = append(run, kr)
		pos = end
	}
	if flags&32 != 0 {
		run[len(run)-1].End = nil
	}
	return run
}

// randomRun is an ascending run of up to 40 ranges sharing one zone:
// short ranges (several inside one block), long ones, ranges starting
// or ending between stored keys, and empty ones.
func randomRun(rng *rand.Rand) []KeyRange {
	data := make([]byte, 2+3*(1+rng.Intn(40)))
	rng.Read(data)
	for i := 2; i < len(data); i += 3 {
		data[i] &^= 8 // ascending only
		if rng.Intn(4) != 0 {
			data[i+1] %= 8 // mostly close together
			data[i+2] %= 6
		}
	}
	return decodeRun(data)
}

func TestScanRunMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		fx := newScanFixture(t, t.TempDir(), seed)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 60; i++ {
			scanRunCheck(t, fx, randomRun(rng))
		}
		// A one-range run of the whole key space, plain and zoned.
		scanRunCheck(t, fx, []KeyRange{{}})
		scanRunCheck(t, fx, []KeyRange{{Zoned: true, ZMin: 100, ZMax: 300}})
	}
	// Several tables of a registered family with a prefix length: most
	// ranges pass over the tables their summaries prove empty.
	for seed := int64(1); seed <= 3; seed++ {
		fx := newSummaryFixture(t, t.TempDir(), seed)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 60; i++ {
			scanRunCheck(t, fx, randomRun(rng))
		}
		scanRunCheck(t, fx, []KeyRange{{}})
		if fx.r.met.TablesSkipped == 0 {
			t.Fatal("no range passed over a table by its prefix summary")
		}
	}
}

// TestScanRunZoneVeto: a window that the second table's rewritten span
// misses must not let its blocks be pruned over the oldest table's
// stale in-window versions of the same keys.
func TestScanRunZoneVeto(t *testing.T) {
	fx := newScanFixture(t, t.TempDir(), 7)
	newest := fx.r.tables[1]
	var keys []string
	for k, v := range fx.model {
		if zoneTime(v) >= 100*modelKeys {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 || len(newest.index) == 0 {
		t.Fatal("the fixture rewrote no span out of the window")
	}
	sort.Strings(keys)
	run := []KeyRange{{Start: []byte(keys[0]), End: append([]byte(keys[len(keys)-1]), 0), Zoned: true, ZMin: 0, ZMax: modelKeys}}
	scanRunCheck(t, fx, run)
}

// FuzzScanRun decodes a run of ranges (see decodeRun), ascending or not,
// and checks it against the model and against region.Scan per range, on
// the plain fixture and on the summary fixture.
func FuzzScanRun(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 2, 0, 1, 2, 0, 0, 5, 6, 40, 40})
	f.Add([]byte{1, 40, 1, 2, 3, 2, 1, 1, 4, 0, 3, 8, 9, 2})
	f.Add([]byte{0x81, 0, 16, 0, 47, 0, 200, 47, 8, 20, 5})
	f.Add([]byte{0, 0, 4, 7, 1, 4, 0, 1, 0, 3, 3})
	fx := newScanFixture(f, f.TempDir(), 11)
	summarised := newSummaryFixture(f, f.TempDir(), 11)
	f.Fuzz(func(t *testing.T, data []byte) {
		scanRunCheck(t, fx, decodeRun(data))
		scanRunCheck(t, summarised, decodeRun(data))
	})
}

// TestRecycledMergeStaysExact re-arms one merge across a flush and a
// full compaction, as region.snapshot re-arms a merge a scan recycled
// (recycle is reset, then the pool). Reset must return every table's
// reference count to its base and leave no block, memtable entry or
// table in the merge; the tables it pinned must retire and close; and
// the re-armed merge, over new tables and a new memtable, must still
// match the model and a fresh region.Scan.
func TestRecycledMergeStaysExact(t *testing.T) {
	fx := newScanFixture(t, t.TempDir(), 5)
	rng := rand.New(rand.NewSource(5))
	refs := func(ts []*table) []int32 {
		out := make([]int32, len(ts))
		for i, tb := range ts {
			out[i] = tb.refs.Load()
		}
		return out
	}
	// scan runs random runs and a whole-key-space one through it, which
	// holds ts pinned once more than their base.
	scan := func(it *mergeIter, ts []*table, base []int32) {
		t.Helper()
		for i := 0; i < 30; i++ {
			checkMergeRun(t, fx, it, randomRun(rng))
		}
		checkMergeRun(t, fx, it, []KeyRange{{}})
		for i, n := range refs(ts) {
			if n != base[i]+1 {
				t.Fatalf("table %d: %d references while the merge is armed, want %d", i, n, base[i]+1)
			}
		}
		it.reset()
		if got := refs(ts); !slices.Equal(got, base) {
			t.Fatalf("after reset the tables hold %v references, want their base %v", got, base)
		}
		requireEmptyMerge(t, it)
	}
	write := func(n int) {
		for j := 0; j < n; j++ {
			k := modelKey(2 * rng.Intn(modelKeys/2))
			if rng.Intn(4) == 0 {
				if err := fx.r.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(fx.model, string(k))
				continue
			}
			v := zoneValue(rng.Int63n(2*modelKeys), 240)
			if err := fx.r.Put(k, v); err != nil {
				t.Fatal(err)
			}
			fx.model[string(k)] = v
		}
		fx.live = fx.live[:0]
		for k := range fx.model {
			fx.live = append(fx.live, k)
		}
		sort.Strings(fx.live)
	}

	first := slices.Clone(fx.r.tables)
	base := refs(first)
	it := fx.r.snapshot()
	scan(it, first, base)

	write(120)
	pauseFlusher(fx.r, false)
	if err := fx.r.flush(); err != nil {
		t.Fatal(err)
	}
	if err := fx.r.compact(); err != nil {
		t.Fatal(err)
	}
	for i, tb := range first {
		if slices.Contains(fx.r.tables, tb) || !tb.drop.Load() || tb.refs.Load() != 0 {
			t.Fatalf("table %d of the first snapshot is live after flush and compaction (%d references)", i, tb.refs.Load())
		}
	}
	write(80) // the re-armed merge has an active memtable to copy from

	second := slices.Clone(fx.r.tables)
	base = refs(second)
	fx.r.rearm(it)
	if len(it.mems) != 1 || len(it.tables) != len(second) {
		t.Fatalf("re-armed merge holds %d memtables and %d tables, want 1 and %d", len(it.mems), len(it.tables), len(second))
	}
	scan(it, second, base)
}

// requireEmptyMerge fails unless m, reset, points at no block, memtable
// entry or table, in any slot its kept slices can reach, and kept them.
func requireEmptyMerge(t *testing.T, m *mergeIter) {
	t.Helper()
	if len(m.mems)+len(m.tables)+len(m.pins)+len(m.h) != 0 || cap(m.tables) == 0 || cap(m.pins) == 0 || cap(m.mems) == 0 || cap(m.h) == 0 {
		t.Fatalf("reset left lengths %d/%d/%d/%d and capacities %d/%d/%d/%d (mems/tables/pins/heap), want 0 and kept",
			len(m.mems), len(m.tables), len(m.pins), len(m.h), cap(m.mems), cap(m.tables), cap(m.pins), cap(m.h))
	}
	for i, s := range m.mems[:cap(m.mems)] {
		if s.mem != nil || s.i != 0 || s.prio != 0 {
			t.Fatalf("memtable slot %d still points at a memtable", i)
		}
		for j, e := range s.entries[:cap(s.entries)] {
			if !reflect.ValueOf(e).IsZero() {
				t.Fatalf("memtable slot %d still holds entry %d (%q)", i, j, e.key)
			}
		}
	}
	for i, s := range m.tables[:cap(m.tables)] {
		if !reflect.ValueOf(s).IsZero() {
			t.Fatalf("table slot %d still holds a table iterator", i)
		}
	}
	for i, p := range m.pins[:cap(m.pins)] {
		if p != nil {
			t.Fatalf("pin slot %d still holds a table", i)
		}
	}
	for i, s := range m.h[:cap(m.h)] {
		if s != nil {
			t.Fatalf("heap slot %d still holds a source", i)
		}
	}
	if m.key != nil || m.value != nil || m.high != nil || m.err != nil || m.open || m.raw {
		t.Fatal("reset left the merge's position or error")
	}
}
