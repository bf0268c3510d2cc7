package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// checkPutBatchMatchesPuts applies the batches ops describes to one list
// through putBatch and to another through one-entry puts, and fails tb at
// the first batch after which the two differ in contents, lookups, count
// or size. Each op is two bytes: the first picks a put or a tombstone,
// the value's length and whether the batch ends after it; the second
// picks one of 256 keys, so batches repeat keys and overwrite earlier
// ones.
func checkPutBatchMatchesPuts(tb testing.TB, ops []byte) {
	tb.Helper()
	batched, single := newSkiplist(), newSkiplist()
	probes := make([][]byte, 256)
	for i := range probes {
		probes[i] = []byte(fmt.Sprintf("k%03d", i))
	}
	var batch []memEntry
	for i := 0; i+1 < len(ops); i += 2 {
		op := ops[i]
		e := memEntry{key: probes[ops[i+1]], kind: kindPut}
		if op&3 == 3 {
			e.kind = kindDelete
		} else {
			e.value = []byte(fmt.Sprintf("%d%s", i, bytes.Repeat([]byte("v"), int(op>>2&7))))
		}
		batch = append(batch, e)
		if op>>5 != 0 && i+3 < len(ops) {
			continue
		}
		for _, e := range batch {
			single.put(e.key, e.value, e.kind)
		}
		batched.putBatch(batch)
		batch = batch[:0]
		if msg := skiplistDiff(batched, single, probes); msg != "" {
			tb.Fatalf("after the batch ending at op %d: %s", i/2, msg)
		}
	}
}

// skiplistDiff describes the first difference between a and b, or
// returns "".
func skiplistDiff(a, b *skiplist, probes [][]byte) string {
	ea, eb := a.appendEntries(nil, KeyRange{}), b.appendEntries(nil, KeyRange{})
	if len(ea) != len(eb) {
		return fmt.Sprintf("iterate yields %d entries, want %d", len(ea), len(eb))
	}
	for i := range ea {
		if !bytes.Equal(ea[i].key, eb[i].key) || !bytes.Equal(ea[i].value, eb[i].value) || ea[i].kind != eb[i].kind {
			return fmt.Sprintf("entry %d is %q=%q (kind %d), want %q=%q (kind %d)", i, ea[i].key, ea[i].value, ea[i].kind, eb[i].key, eb[i].value, eb[i].kind)
		}
	}
	ga, gb := make([]memEntry, len(probes)), make([]memEntry, len(probes))
	a.getBatch(probes, ga)
	b.getBatch(probes, gb)
	for i := range ga {
		if !bytes.Equal(ga[i].value, gb[i].value) || ga[i].kind != gb[i].kind {
			return fmt.Sprintf("getBatch %q = %q (kind %d), want %q (kind %d)", probes[i], ga[i].value, ga[i].kind, gb[i].value, gb[i].kind)
		}
	}
	if a.count != b.count || a.size != b.size {
		return fmt.Sprintf("count %d size %d, want count %d size %d", a.count, a.size, b.count, b.size)
	}
	return ""
}

func TestSkiplistPutBatchMatchesPuts(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for seed := 0; seed < 20; seed++ {
		var ops []byte
		// Batches of 1 to 600 entries over 256 keys: duplicates within a
		// batch, overwrites of earlier batches, tombstones, and the first
		// batches of an empty list raising its height.
		for len(ops) < 6000 {
			n := 1 + rng.Intn(600)
			for j := 0; j < n; j++ {
				op := byte(rng.Intn(32)) | 1<<5
				if j == n-1 {
					op &^= 7 << 5
				}
				ops = append(ops, op, byte(rng.Intn(256)))
			}
		}
		checkPutBatchMatchesPuts(t, ops)
	}
	// Batches dense in repeated keys: runs of put, delete, put of one
	// key among three, so that which version wins rests on the sort's
	// tiebreak, not on the keys.
	for seed := 0; seed < 20; seed++ {
		var ops []byte
		for len(ops) < 6000 {
			n := 1 + rng.Intn(200)
			for j := 0; j < n; j++ {
				key := byte(rng.Intn(3))
				for _, op := range []byte{byte(rng.Intn(32)) &^ 3, 3, byte(rng.Intn(32)) &^ 3} {
					if rng.Intn(2) == 0 {
						op ^= 3 // sometimes delete, put, delete
					}
					ops = append(ops, op|1<<5, key)
				}
			}
			ops[len(ops)-2] &^= 7 << 5
		}
		checkPutBatchMatchesPuts(t, ops)
	}
}

func FuzzSkiplistPutBatch(f *testing.F) {
	f.Add([]byte{0x20, 1, 0x23, 1, 0x04, 2, 0x20, 2, 0x03, 1})
	f.Add(bytes.Repeat([]byte{0x21, 7, 0x20, 9, 0x02, 8}, 40))
	f.Add(bytes.Repeat([]byte{0x24, 5, 0x23, 5, 0x28, 5, 0x23, 6, 0x20, 6}, 30))
	f.Add(append(bytes.Repeat([]byte{0x21, 1, 0x23, 1, 0x22, 1}, 50), 0x03, 1))
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkPutBatchMatchesPuts(t, ops)
	})
}
