package table

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"math"

	"just/internal/exec"
	"just/internal/index"
	"just/internal/kv"
)

// The catalog's rows live under table id 0, which Create never assigns,
// so no data key ([tableID u32][indexID u8]…) sorts among them:
//
//	0000 'd' <qualified name>       a descriptor (JSON), written at CREATE
//	0000 'i'                        the next table id (u32)
//	0000 't' <id u32> 'h' <^hi>     the highest record start time
//	0000 't' <id u32> 'l' <lo>      the lowest record start time
//	0000 't' <id u32> 's' <0>       ANALYZE statistics (JSON)
//
// The span bounds ride in their keys as order-preserving u64s, hi
// bit-inverted, so the first key of each kind is the widest. A batch
// adds its key and deletes the one it superseded; no value is
// overwritten, so commits applied out of order can leave a stale key
// behind but never narrow the span.
var nextIDKey = []byte{0, 0, 0, 0, 'i'}

func descKey(qn string) []byte { return append([]byte{0, 0, 0, 0, 'd'}, qn...) }

func metaPrefix(id uint32) []byte {
	return binary.BigEndian.AppendUint32([]byte{0, 0, 0, 0, 't'}, id)
}

const signBit = 1 << 63

func (t *Table) metaKey(kind byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(append(metaPrefix(t.Desc.TableID), kind), v)
}

func (t *Table) loKey(lo int64) []byte { return t.metaKey('l', uint64(lo)^signBit) }
func (t *Table) hiKey(hi int64) []byte { return t.metaKey('h', ^(uint64(hi) ^ signBit)) }

// loadMeta seeds the span and the statistics from the first key of each
// kind, and deletes the stale keys behind them.
func (t *Table) loadMeta(ctx context.Context) error {
	t.minT.Store(math.MaxInt64)
	t.maxT.Store(math.MinInt64)
	t.storedMin.Store(math.MaxInt64)
	t.storedMax.Store(math.MinInt64)
	stale, stats, err := t.readMeta(ctx, index.KeysUnder(metaPrefix(t.Desc.TableID)))
	if err != nil {
		return err
	}
	if stats != nil {
		st := new(TableStats)
		if err := json.Unmarshal(stats, st); err != nil {
			return err
		}
		t.SetStats(st)
	}
	return exec.MapCtxErr(t.cluster.ApplyCtx(ctx, stale))
}

// readMeta reads the meta rows in rng: it widens the span, and the span
// the meta rows are known to cover, to the first key of each bound kind,
// and returns the keys behind the first of their kind and the
// statistics row.
func (t *Table) readMeta(ctx context.Context, rng kv.KeyRange) (stale *kv.WriteBatch, stats []byte, err error) {
	prefix := metaPrefix(t.Desc.TableID)
	stale = new(kv.WriteBatch)
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	var last byte
	err = kv.ScanRange(ctx, t.cluster, rng, func(k, v []byte) bool {
		kind, x := k[len(prefix)], binary.BigEndian.Uint64(k[len(prefix)+1:])
		if kind == last {
			stale.Delete(append([]byte(nil), k...))
			return true
		}
		last = kind
		switch kind {
		case 'h':
			hi = int64(^x ^ signBit)
		case 'l':
			lo = int64(x ^ signBit)
		case 's':
			stats = append([]byte(nil), v...)
		}
		return true
	})
	widen(&t.minT, &t.maxT, lo, hi)
	widen(&t.storedMin, &t.storedMax, lo, hi)
	return stale, stats, exec.MapCtxErr(err)
}

// syncSpan re-reads the span's meta rows on a router, where other
// routers' INSERTs widen the stored span but not this process's copy,
// when PlanAccess would cut a periodic plan of q to a span q reaches
// outside of.
func (t *Table) syncSpan(ctx context.Context, q index.Query) error {
	span := t.TimeSpan()
	if _, shared := t.cluster.(*kv.Router); !shared || q.HasTime && q.TMin >= span.Min && q.TMax <= span.Max {
		return nil
	}
	// Without statistics PlanAccess takes a periodic index for a
	// time-less query only when the table has no other curve index.
	periodic, untimed := false, false
	for _, s := range t.strategies {
		periodic, untimed = periodic || s.Temporal(), untimed || !s.Temporal()
	}
	if !periodic || !q.HasTime && untimed && t.Stats() == nil {
		return nil
	}
	_, _, err := t.readMeta(ctx, kv.KeyRange{Start: append(metaPrefix(t.Desc.TableID), 'h'), End: append(metaPrefix(t.Desc.TableID), 'm')})
	return err
}

// putMeta queues in b the key of each bound of [lo, hi], a batch's start
// times, that the stored span does not yet cover, and the delete of the
// key it supersedes. The stored span widens only once a batch commits,
// so a batch inside a span another batch has widened but not yet
// committed still carries its own bound.
func (t *Table) putMeta(b *kv.WriteBatch, lo, hi int64) {
	if cur := t.storedMin.Load(); lo < cur {
		b.Put(t.loKey(lo), nil)
		if cur != math.MaxInt64 {
			b.Delete(t.loKey(cur))
		}
	}
	if cur := t.storedMax.Load(); hi > cur {
		b.Put(t.hiKey(hi), nil)
		if cur != math.MinInt64 {
			b.Delete(t.hiKey(cur))
		}
	}
}
