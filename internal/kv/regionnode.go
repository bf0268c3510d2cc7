package kv

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"just/internal/rpc"
)

// NodeOptions configure a RegionNode.
type NodeOptions struct {
	// Store-level options applied to every hosted region.
	Options
	// NodeID distinguishes this node in the cluster; region IDs minted
	// by autonomous splits are drawn from the node's private space
	// (NodeID*splitIDSpace + counter), so concurrent splits on different
	// nodes never collide. Router-assigned bootstrap IDs stay below
	// splitIDSpace.
	NodeID int
	// SplitBytes triggers an autonomous region split when a primary
	// region's on-disk size exceeds it; 0 disables size splits.
	SplitBytes int64
	// Transport carries WAL shipping and split forwarding to replica
	// peers. Required when any region has replicas.
	Transport Transport
}

// splitIDSpace partitions the region-ID space per node (see NodeID).
const splitIDSpace = 1_000_000

// scanBatchSize caps the pairs of one scan reply frame.
const scanBatchSize = 512

// copy chunking: mutations and bytes per batch that a split, a merge or
// a reseed writes (see copyChunks).
const (
	reseedChunkMuts  = 4096
	reseedChunkBytes = 4 << 20
)

// copyChunks hands apply the live pairs of a snapshot of r over kr, in
// key order, as chunks of at most reseedChunkMuts pairs or about
// reseedChunkBytes of keys and values: the one copier of region splits,
// merges and replica reseeds. A chunk's slices are copies, valid until
// apply returns.
func (r *region) copyChunks(kr KeyRange, apply func([]mutation) error) error {
	it := r.Scan(kr)
	defer it.Close()
	var (
		muts []mutation
		buf  []byte
	)
	for it.Next() {
		// A grown buf leaves the chunk's earlier pairs in the old array.
		n, k := len(buf), len(it.Key())
		buf = append(append(buf, it.Key()...), it.Value()...)
		muts = append(muts, mutation{kindPut, buf[n : n+k : n+k], buf[n+k : len(buf) : len(buf)]})
		if len(muts) >= reseedChunkMuts || len(buf) >= reseedChunkBytes {
			if err := apply(muts); err != nil {
				return err
			}
			muts, buf = muts[:0], buf[:0]
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	if len(muts) == 0 {
		return nil
	}
	return apply(muts)
}

// errShipGap reports a replica whose ship stream has a sequence hole
// (it restarted, or a promote re-based the stream); the primary cures
// it by reseeding the replica from scratch.
var errShipGap = errors.New("kv: ship sequence gap")

// errScanDone stops a scan walk after its stream already ended with a
// terminal frame (deadline abort); never sent on the wire.
var errScanDone = errors.New("kv: scan terminated early")

// RegionNode hosts regions on one region-server process: it owns their
// LSM stores, serves the rpc surface (see the Handler method), ships
// acknowledged batches synchronously to replica peers, and splits its
// primary regions autonomously when they outgrow the thresholds. The
// hosted topology (region ranges, epochs, roles, replica sets) persists
// in nodemeta.json so a restarted node serves exactly what it served
// before.
type RegionNode struct {
	dir   string
	opts  NodeOptions
	fs    VFS
	cache *blockCache
	met   Metrics
	tr    Transport

	mu      sync.Mutex // regions map, ID counter, meta persistence
	regions map[uint64]*servedRegion
	nextID  uint64
	closed  bool

	splitMu sync.Mutex // serializes autonomous splits and merges
}

// servedRegion is one region hosted by a RegionNode.
//
// Locking: topology fields (epoch, kr, role, retired) are written only
// with BOTH the node's mu and this region's mu write-held, so readers
// may use either; serving operations hold mu.RLock for their duration,
// which lets structural changes (split, merge, retire, reseed-target)
// quiesce the region by taking mu. wmu serializes the primary's
// apply+ship pairs — replicas apply batches in ship order, so local
// apply order and ship order must agree — and guards replicas/repSeq.
type servedRegion struct {
	id uint64
	mu sync.RWMutex

	epoch   uint64
	kr      KeyRange
	role    byte // rpc.RolePrimary or rpc.RoleReplica
	retired bool
	r       *region

	wmu      sync.Mutex
	replicas []string          // primary: replica peer addresses
	repSeq   map[string]uint64 // primary: last acked ship seq per replica
	seq      uint64            // replica: last applied ship seq
}

// nodeMeta is the persisted topology (nodemeta.json).
type nodeMeta struct {
	NodeID  int          `json:"node_id"`
	NextID  uint64       `json:"next_id"`
	Regions []regionMeta `json:"regions"`
}

type regionMeta struct {
	ID       uint64   `json:"id"`
	Epoch    uint64   `json:"epoch"`
	Start    []byte   `json:"start,omitempty"`
	End      []byte   `json:"end,omitempty"`
	Role     byte     `json:"role"`
	Replicas []string `json:"replicas,omitempty"`
}

// OpenRegionNode opens (or creates) a region node rooted at dir,
// reopening every region recorded in its metadata. Replica ship
// sequences are not persisted: after a restart the first shipped batch
// observes a gap and the primary reseeds, which is slower than resuming
// but always correct.
func OpenRegionNode(dir string, opts NodeOptions) (*RegionNode, error) {
	if !ValidCodec(opts.Options.Codec) {
		return nil, fmt.Errorf("kv: unknown block codec %q (want none, gzip or lz4)", opts.Options.Codec)
	}
	opts.Options = opts.Options.withDefaults()
	fs := opts.Options.FS
	if fs == nil {
		fs = defaultFS()
	}
	n := &RegionNode{
		dir:     dir,
		opts:    opts,
		fs:      fs,
		cache:   newBlockCache(opts.BlockCacheBytes),
		tr:      opts.Transport,
		regions: map[uint64]*servedRegion{},
		nextID:  1,
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	meta, err := n.loadMeta()
	if err != nil {
		return nil, err
	}
	if meta != nil {
		n.nextID = meta.NextID
		for _, rm := range meta.Regions {
			r, err := openRegion(int(rm.ID), n.regionDir(rm.ID), n.opts.Options, n.cache, &n.met)
			if err != nil {
				n.Close()
				return nil, fmt.Errorf("kv: reopen region %d: %w", rm.ID, err)
			}
			n.regions[rm.ID] = &servedRegion{
				id:       rm.ID,
				epoch:    rm.Epoch,
				kr:       KeyRange{Start: rm.Start, End: rm.End},
				role:     rm.Role,
				replicas: rm.Replicas,
				repSeq:   map[string]uint64{},
				r:        r,
			}
		}
	}
	return n, nil
}

func (n *RegionNode) regionDir(id uint64) string {
	return filepath.Join(n.dir, fmt.Sprintf("region-%d", id))
}

// allocID mints a region ID from this node's private space. Caller
// holds n.mu.
func (n *RegionNode) allocIDLocked() uint64 {
	id := uint64(n.opts.NodeID)*splitIDSpace + n.nextID
	n.nextID++
	return id
}

// saveMetaLocked persists the topology atomically. Caller holds n.mu.
func (n *RegionNode) saveMetaLocked() error {
	meta := nodeMeta{NodeID: n.opts.NodeID, NextID: n.nextID}
	for _, sr := range n.regions {
		meta.Regions = append(meta.Regions, regionMeta{
			ID: sr.id, Epoch: sr.epoch, Start: sr.kr.Start, End: sr.kr.End,
			Role: sr.role, Replicas: sr.replicas,
		})
	}
	data, err := json.Marshal(&meta)
	if err != nil {
		return err
	}
	path := filepath.Join(n.dir, "nodemeta.json")
	tmp := path + ".tmp"
	if err := n.fs.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := n.fs.Rename(tmp, path); err != nil {
		return err
	}
	return n.fs.SyncDir(n.dir)
}

func (n *RegionNode) loadMeta() (*nodeMeta, error) {
	data, err := n.fs.ReadFile(filepath.Join(n.dir, "nodemeta.json"))
	if err != nil {
		return nil, nil // first boot
	}
	var meta nodeMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, fmt.Errorf("kv: corrupt nodemeta.json: %w", err)
	}
	return &meta, nil
}

// acquire resolves a region for serving: the region must exist, match
// the caller's epoch, and (for writes/ships) have the expected role.
// On success the region's read lock is held; the caller must release
// it.
func (n *RegionNode) acquire(id, epoch uint64, role byte) (*servedRegion, error) {
	n.mu.Lock()
	sr := n.regions[id]
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if sr == nil {
		return nil, ErrStaleRegion
	}
	sr.mu.RLock()
	if sr.retired || sr.epoch != epoch || (role != 0 && sr.role != role) {
		sr.mu.RUnlock()
		return nil, ErrStaleRegion
	}
	return sr, nil
}

// Metrics snapshots the node's cumulative storage metrics.
func (n *RegionNode) Metrics() Metrics { return n.met.snapshot() }

// Regions returns the number of live regions hosted.
func (n *RegionNode) Regions() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.regions)
}

// Close closes every hosted region.
func (n *RegionNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	regions := make([]*servedRegion, 0, len(n.regions))
	for _, sr := range n.regions {
		regions = append(regions, sr)
	}
	n.mu.Unlock()
	var first error
	for _, sr := range regions {
		sr.mu.Lock()
		if err := sr.r.Close(); err != nil && first == nil {
			first = err
		}
		sr.mu.Unlock()
	}
	return first
}

// sendKVErr maps storage errors onto wire error codes.
func sendKVErr(w *rpc.ResponseWriter, err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The caller's propagated budget ran out (or the server is
		// shutting the request down); the work was abandoned.
		return w.SendErr(rpc.CodeDeadline, err.Error())
	case errors.Is(err, ErrStaleRegion):
		return w.SendErr(rpc.CodeStaleRegion, err.Error())
	case errors.Is(err, ErrNotFound):
		return w.SendErr(rpc.CodeNotFound, err.Error())
	case errors.Is(err, errShipGap):
		return w.SendErr(rpc.CodeShipGap, err.Error())
	case errors.Is(err, ErrClosed):
		return w.SendErr(rpc.CodeClosed, err.Error())
	case errors.Is(err, ErrUnavailable):
		return w.SendErr(rpc.CodeUnavailable, err.Error())
	default:
		return w.SendErr(rpc.CodeInternal, err.Error())
	}
}

// Handler returns the node's rpc dispatch, shared verbatim by the TCP
// server and the in-process loopback transport.
func (n *RegionNode) Handler() rpc.Handler {
	return func(ctx context.Context, op byte, payload []byte, w *rpc.ResponseWriter) error {
		switch op {
		case rpc.OpPing:
			return w.Send(rpc.OpResp, nil)
		case rpc.OpPutBatch:
			return n.handlePutBatch(ctx, payload, w)
		case rpc.OpGet:
			return n.handleGet(ctx, payload, w)
		case rpc.OpMultiGet:
			return n.handleMultiGet(ctx, payload, w)
		case rpc.OpScan:
			return n.handleScan(ctx, payload, w)
		case rpc.OpShip:
			return n.handleShip(payload, w)
		case rpc.OpRegionMap:
			return n.handleRegionMap(w)
		case rpc.OpCreateRegion:
			return n.handleCreateRegion(payload, w)
		case rpc.OpSplit:
			return n.handleSplit(payload, w)
		case rpc.OpMerge:
			return n.handleMerge(payload, w)
		case rpc.OpPromote:
			return n.handlePromote(payload, w)
		case rpc.OpRetire:
			return n.handleRetire(payload, w)
		case rpc.OpStatus:
			return n.handleStatus(payload, w)
		case rpc.OpFlush:
			return n.handleMaintenance(w, func(r *region) error { return r.flush() })
		case rpc.OpCompact:
			return n.handleMaintenance(w, func(r *region) error { return r.compact() })
		case rpc.OpStats:
			m := n.Metrics()
			data, err := json.Marshal(&m)
			if err != nil {
				return w.SendErr(rpc.CodeInternal, err.Error())
			}
			return w.Send(rpc.OpResp, data)
		default:
			return w.SendErr(rpc.CodeBadRequest, fmt.Sprintf("unknown op %#02x", op))
		}
	}
}

// expired reports (and counts) a request whose propagated caller
// budget already ran out — the work is abandoned before it starts, or
// between scan batches.
func (n *RegionNode) expired(ctx context.Context) bool {
	if ctx.Err() != nil {
		atomic.AddInt64(&n.met.DeadlineAborts, 1)
		return true
	}
	return false
}

func (n *RegionNode) handlePutBatch(ctx context.Context, payload []byte, w *rpc.ResponseWriter) error {
	var req rpc.PutBatchReq
	if err := req.Decode(payload); err != nil {
		return w.SendErr(rpc.CodeBadRequest, err.Error())
	}
	if n.expired(ctx) {
		return sendKVErr(w, ctx.Err())
	}
	muts, err := decodeBatchPayload(req.Payload)
	if err != nil {
		return w.SendErr(rpc.CodeBadRequest, err.Error())
	}
	sr, err := n.acquire(req.Region, req.Epoch, rpc.RolePrimary)
	if err != nil {
		return sendKVErr(w, err)
	}
	// wmu orders this apply+ship pair against concurrent writers: the
	// replicas replay batches in ship order, so it must equal local
	// apply order (applyBatch copies into the memtable arena, so the
	// frame-owned slices in muts are safe to pass).
	sr.wmu.Lock()
	err = sr.r.applyBatch(muts)
	if err == nil && len(sr.replicas) > 0 {
		err = n.shipLocked(ctx, sr, req.Payload)
	}
	sr.wmu.Unlock()
	sr.mu.RUnlock()
	if err != nil {
		return sendKVErr(w, err)
	}
	if err := w.Send(rpc.OpResp, nil); err != nil {
		return err
	}
	n.maybeSplit(sr)
	return nil
}

// shipLocked synchronously replicates one sealed batch payload to every
// replica (caller holds sr.mu.RLock and sr.wmu). The write is
// acknowledged only after every reachable replica applied it; a replica
// with a sequence gap is reseeded inline; an unreachable or stale
// replica is dropped from the set (the router's rebalancer re-adds
// capacity later), so a single peer failure degrades redundancy, never
// availability.
func (n *RegionNode) shipLocked(ctx context.Context, sr *servedRegion, payload []byte) error {
	req := rpc.ShipReq{Region: sr.id, Epoch: sr.epoch}
	var dropped []string
	for _, addr := range sr.replicas {
		last, seeded := sr.repSeq[addr]
		if !seeded {
			// Never shipped to this peer (fresh replica, promote re-based
			// the stream, or this primary restarted — repSeq is not
			// persisted): reseed it from the current state, which already
			// includes the batch being shipped.
			seq, rerr := n.reseedReplica(ctx, sr, addr)
			if rerr != nil {
				dropped = append(dropped, addr)
				continue
			}
			sr.repSeq[addr] = seq
			continue
		}
		req.Seq = last + 1
		req.Payload = payload
		_, err := n.tr.Do(ctx, addr, rpc.OpShip, req.Append(nil))
		var re *rpc.RemoteError
		if errors.As(err, &re) && re.Code == rpc.CodeShipGap {
			// The replica restarted underneath an established stream.
			seq, rerr := n.reseedReplica(ctx, sr, addr)
			if rerr != nil {
				dropped = append(dropped, addr)
				continue
			}
			sr.repSeq[addr] = seq
			continue
		}
		if err != nil {
			dropped = append(dropped, addr)
			continue
		}
		sr.repSeq[addr] = req.Seq
	}
	if len(dropped) > 0 {
		kept := sr.replicas[:0]
		for _, addr := range sr.replicas {
			drop := false
			for _, d := range dropped {
				if d == addr {
					drop = true
					break
				}
			}
			if !drop {
				kept = append(kept, addr)
			} else {
				delete(sr.repSeq, addr)
			}
		}
		sr.replicas = kept
		n.mu.Lock()
		n.saveMetaLocked()
		n.mu.Unlock()
	}
	return nil
}

// reseedReplica wipes addr's copy of the region and streams the
// primary's full current state as chunked ship batches (sequences
// 1..k). Returns the last sequence shipped.
func (n *RegionNode) reseedReplica(ctx context.Context, sr *servedRegion, addr string) (uint64, error) {
	create := rpc.CreateRegionReq{
		ID: sr.id, Epoch: sr.epoch, Start: sr.kr.Start, End: sr.kr.End,
		Role: rpc.RoleReplica, Reset: true,
	}
	if _, err := n.tr.Do(ctx, addr, rpc.OpCreateRegion, rpc.MarshalAdmin(&create)); err != nil {
		return 0, err
	}
	var seq uint64
	sreq := rpc.ShipReq{Region: sr.id, Epoch: sr.epoch}
	err := sr.r.copyChunks(KeyRange{}, func(muts []mutation) error {
		seq++
		sreq.Seq = seq
		sreq.Payload = encodeBatchPayload(sreq.Payload[:0], muts)
		_, err := n.tr.Do(ctx, addr, rpc.OpShip, sreq.Append(nil))
		return err
	})
	if err != nil {
		return 0, err
	}
	return seq, nil
}

func (n *RegionNode) handleGet(ctx context.Context, payload []byte, w *rpc.ResponseWriter) error {
	var req rpc.GetReq
	if err := req.Decode(payload); err != nil {
		return w.SendErr(rpc.CodeBadRequest, err.Error())
	}
	if n.expired(ctx) {
		return sendKVErr(w, ctx.Err())
	}
	sr, err := n.acquire(req.Region, req.Epoch, 0)
	if err != nil {
		return sendKVErr(w, err)
	}
	v, err := sr.r.Get(req.Key)
	sr.mu.RUnlock()
	if err != nil {
		return sendKVErr(w, err)
	}
	return w.Send(rpc.OpResp, v)
}

func (n *RegionNode) handleMultiGet(ctx context.Context, payload []byte, w *rpc.ResponseWriter) error {
	var req rpc.MultiGetReq
	if err := req.Decode(payload); err != nil {
		return w.SendErr(rpc.CodeBadRequest, err.Error())
	}
	if n.expired(ctx) {
		return sendKVErr(w, ctx.Err())
	}
	sr, err := n.acquire(req.Region, req.Epoch, 0)
	if err != nil {
		return sendKVErr(w, err)
	}
	out := make([][]byte, len(req.Keys))
	err = sr.r.getBatch(req.Keys, out)
	sr.mu.RUnlock()
	if err != nil {
		return sendKVErr(w, err)
	}
	resp := rpc.ValuesResp{Vals: out}
	return w.Send(rpc.OpResp, resp.Append(nil))
}

func (n *RegionNode) handleScan(ctx context.Context, payload []byte, w *rpc.ResponseWriter) error {
	var req rpc.ScanReq
	if err := req.Decode(payload); err != nil {
		return w.SendErr(rpc.CodeBadRequest, err.Error())
	}
	if n.expired(ctx) {
		return sendKVErr(w, ctx.Err())
	}
	sr, err := n.acquire(req.Region, req.Epoch, 0)
	if err != nil {
		return sendKVErr(w, err)
	}
	// The read lock is held for the whole stream: a split cannot retire
	// this region's store while the scan walks it, it queues behind the
	// scan instead (writes keep flowing — they also use read locks).
	defer sr.mu.RUnlock()
	// emit sends one frame, bailing out when the caller's propagated
	// deadline expired (a terminal CodeDeadline ends the stream and
	// errScanDone stops the walk) or the client canceled the stream —
	// either way the consumer is gone, so the scan stops instead of
	// walking the rest of the region into a dead connection.
	var frame scanFrame
	emit := func() error {
		if n.expired(ctx) {
			if err := sendKVErr(w, ctx.Err()); err != nil {
				return err
			}
			return errScanDone
		}
		if err := w.Send(rpc.OpScanBatch, frame.payload()); err != nil {
			if errors.Is(err, rpc.ErrStreamCanceled) {
				atomic.AddInt64(&n.met.ScanCancels, 1)
			}
			return err
		}
		return nil
	}
	// The run's ranges are walked in order by one merge over one region
	// snapshot, and a frame fills across their boundaries, so a run of
	// ranges costs the frames of one range. Each pair is encoded into the
	// frame as the merge yields it: the merge's views last only until it
	// moves on.
	it := sr.r.snapshot()
	defer it.recycle()
	kr := KeyRange{Start: req.Start, End: req.End, Zoned: req.Zoned, ZMin: req.ZMin, ZMax: req.ZMax}
	for i := 0; ; i++ {
		it.seek(kr)
		for it.Next() {
			if frame.add(it.Key(), it.Value()) {
				if err := emit(); err != nil {
					if errors.Is(err, errScanDone) {
						return nil
					}
					return err
				}
			}
		}
		if err := it.Err(); err != nil {
			return sendKVErr(w, err)
		}
		if i == len(req.More) {
			break
		}
		kr.Start, kr.End = req.More[i].Start, req.More[i].End
	}
	if frame.pairs > 0 {
		if err := emit(); err != nil {
			if errors.Is(err, errScanDone) {
				return nil
			}
			return err
		}
	}
	return w.Send(rpc.OpScanEnd, nil)
}

// scanFrame builds an OpScanBatch payload pair by pair, in the bytes
// rpc.ScanBatch.Append writes: the pair count, then each key and value
// with its length. The count leads but is known only at the end, so
// room for its varint is kept in front of the pairs, and payload writes
// it into the tail of that room.
type scanFrame struct {
	buf   []byte // frameCountRoom bytes of room, then the pairs
	pairs int
	size  int // key and value bytes in the frame
}

const frameCountRoom = binary.MaxVarintLen64

// add encodes a pair into the frame and reports whether the frame is
// full: scanBatchSize pairs, or reseedChunkBytes of keys and values.
func (f *scanFrame) add(k, v []byte) bool {
	if f.buf == nil {
		f.buf = make([]byte, frameCountRoom, 4<<10)
	}
	f.buf = binary.AppendUvarint(f.buf, uint64(len(k)))
	f.buf = append(f.buf, k...)
	f.buf = binary.AppendUvarint(f.buf, uint64(len(v)))
	f.buf = append(f.buf, v...)
	f.pairs++
	f.size += len(k) + len(v)
	return f.pairs >= scanBatchSize || f.size >= reseedChunkBytes
}

// payload returns the frame's bytes and empties it. They are valid
// until the next add.
func (f *scanFrame) payload() []byte {
	var count [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(count[:], uint64(f.pairs))
	p := f.buf[frameCountRoom-n:]
	copy(p, count[:n])
	f.buf, f.pairs, f.size = f.buf[:frameCountRoom], 0, 0
	return p
}

func (n *RegionNode) handleShip(payload []byte, w *rpc.ResponseWriter) error {
	var req rpc.ShipReq
	if err := req.Decode(payload); err != nil {
		return w.SendErr(rpc.CodeBadRequest, err.Error())
	}
	muts, err := decodeBatchPayload(req.Payload)
	if err != nil {
		return w.SendErr(rpc.CodeBadRequest, err.Error())
	}
	sr, err := n.acquire(req.Region, req.Epoch, rpc.RoleReplica)
	if err != nil {
		return sendKVErr(w, err)
	}
	sr.wmu.Lock()
	if req.Seq != sr.seq+1 {
		seq := sr.seq
		sr.wmu.Unlock()
		sr.mu.RUnlock()
		return sendKVErr(w, fmt.Errorf("%w: have %d, got %d", errShipGap, seq, req.Seq))
	}
	err = sr.r.applyBatch(muts)
	if err == nil {
		sr.seq = req.Seq
	}
	sr.wmu.Unlock()
	sr.mu.RUnlock()
	if err != nil {
		return sendKVErr(w, err)
	}
	return w.Send(rpc.OpResp, nil)
}

func (n *RegionNode) handleRegionMap(w *rpc.ResponseWriter) error {
	n.mu.Lock()
	resp := rpc.RegionMapResp{Node: fmt.Sprintf("node-%d", n.opts.NodeID)}
	regions := make([]*servedRegion, 0, len(n.regions))
	for _, sr := range n.regions {
		regions = append(regions, sr)
	}
	n.mu.Unlock()
	for _, sr := range regions {
		sr.mu.RLock()
		if sr.retired {
			sr.mu.RUnlock()
			continue
		}
		info := rpc.RegionInfo{
			ID: sr.id, Epoch: sr.epoch, Start: sr.kr.Start, End: sr.kr.End,
			Role: sr.role, Replicas: append([]string(nil), sr.replicas...),
			Bytes: sr.r.DiskSize(), LastSeq: sr.seq,
		}
		sr.mu.RUnlock()
		resp.Regions = append(resp.Regions, info)
	}
	return w.Send(rpc.OpResp, rpc.MarshalAdmin(&resp))
}

func (n *RegionNode) handleCreateRegion(payload []byte, w *rpc.ResponseWriter) error {
	var req rpc.CreateRegionReq
	if err := rpc.UnmarshalAdmin(payload, &req); err != nil {
		return w.SendErr(rpc.CodeBadRequest, err.Error())
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return w.SendErr(rpc.CodeClosed, "node closed")
	}
	if old := n.regions[req.ID]; old != nil {
		if !req.Reset {
			// Idempotent re-create: same shape, nothing to do.
			old.mu.RLock()
			same := old.epoch == req.Epoch && old.role == req.Role &&
				bytes.Equal(old.kr.Start, req.Start) && bytes.Equal(old.kr.End, req.End)
			old.mu.RUnlock()
			n.mu.Unlock()
			if same {
				return w.Send(rpc.OpResp, nil)
			}
			return w.SendErr(rpc.CodeStaleRegion, fmt.Sprintf("region %d exists with different shape", req.ID))
		}
		delete(n.regions, req.ID)
		n.mu.Unlock()
		old.mu.Lock()
		old.retired = true
		old.r.Close()
		old.mu.Unlock()
		n.fs.RemoveAll(n.regionDir(req.ID))
		n.mu.Lock()
	}
	r, err := openRegion(int(req.ID), n.regionDir(req.ID), n.opts.Options, n.cache, &n.met)
	if err != nil {
		n.mu.Unlock()
		return w.SendErr(rpc.CodeInternal, err.Error())
	}
	n.regions[req.ID] = &servedRegion{
		id: req.ID, epoch: req.Epoch,
		kr:   KeyRange{Start: req.Start, End: req.End},
		role: req.Role, replicas: req.Replicas, repSeq: map[string]uint64{},
		r: r,
	}
	err = n.saveMetaLocked()
	n.mu.Unlock()
	if err != nil {
		return w.SendErr(rpc.CodeInternal, err.Error())
	}
	return w.Send(rpc.OpResp, nil)
}

func (n *RegionNode) handleStatus(payload []byte, w *rpc.ResponseWriter) error {
	var req rpc.StatusReq
	if err := rpc.UnmarshalAdmin(payload, &req); err != nil {
		return w.SendErr(rpc.CodeBadRequest, err.Error())
	}
	n.mu.Lock()
	sr := n.regions[req.Region]
	n.mu.Unlock()
	if sr == nil {
		return w.SendErr(rpc.CodeStaleRegion, fmt.Sprintf("no region %d", req.Region))
	}
	sr.mu.RLock()
	resp := rpc.StatusResp{
		Region: sr.id, Epoch: sr.epoch, Role: sr.role,
		LastSeq: sr.seq, Bytes: sr.r.DiskSize(),
	}
	sr.mu.RUnlock()
	return w.Send(rpc.OpResp, rpc.MarshalAdmin(&resp))
}

func (n *RegionNode) handlePromote(payload []byte, w *rpc.ResponseWriter) error {
	var req rpc.PromoteReq
	if err := rpc.UnmarshalAdmin(payload, &req); err != nil {
		return w.SendErr(rpc.CodeBadRequest, err.Error())
	}
	n.mu.Lock()
	sr := n.regions[req.Region]
	n.mu.Unlock()
	if sr == nil {
		return w.SendErr(rpc.CodeStaleRegion, fmt.Sprintf("no region %d", req.Region))
	}
	sr.mu.Lock()
	if sr.retired || req.NewEpoch <= sr.epoch {
		epoch := sr.epoch
		sr.mu.Unlock()
		return w.SendErr(rpc.CodeStaleRegion, fmt.Sprintf("promote epoch %d not above %d", req.NewEpoch, epoch))
	}
	n.mu.Lock()
	sr.epoch = req.NewEpoch
	sr.role = rpc.RolePrimary
	sr.replicas = append([]string(nil), req.Replicas...)
	sr.repSeq = map[string]uint64{} // fresh stream: replicas reseed on first ship
	err := n.saveMetaLocked()
	n.mu.Unlock()
	sr.mu.Unlock()
	if err != nil {
		return w.SendErr(rpc.CodeInternal, err.Error())
	}
	return w.Send(rpc.OpResp, nil)
}

func (n *RegionNode) handleRetire(payload []byte, w *rpc.ResponseWriter) error {
	var req rpc.RetireReq
	if err := rpc.UnmarshalAdmin(payload, &req); err != nil {
		return w.SendErr(rpc.CodeBadRequest, err.Error())
	}
	n.mu.Lock()
	sr := n.regions[req.Region]
	n.mu.Unlock()
	if sr == nil {
		return w.Send(rpc.OpResp, nil) // idempotent
	}
	sr.mu.Lock()
	sr.retired = true
	sr.r.Close()
	sr.mu.Unlock()
	n.fs.RemoveAll(n.regionDir(req.Region))
	n.mu.Lock()
	delete(n.regions, req.Region)
	err := n.saveMetaLocked()
	n.mu.Unlock()
	if err != nil {
		return w.SendErr(rpc.CodeInternal, err.Error())
	}
	return w.Send(rpc.OpResp, nil)
}

func (n *RegionNode) handleMaintenance(w *rpc.ResponseWriter, fn func(*region) error) error {
	n.mu.Lock()
	regions := make([]*servedRegion, 0, len(n.regions))
	for _, sr := range n.regions {
		regions = append(regions, sr)
	}
	n.mu.Unlock()
	for _, sr := range regions {
		sr.mu.RLock()
		var err error
		if !sr.retired {
			err = fn(sr.r)
		}
		sr.mu.RUnlock()
		if err != nil && err != ErrClosed {
			return sendKVErr(w, err)
		}
	}
	return w.Send(rpc.OpResp, nil)
}

// maybeSplit splits sr when it outgrew the size threshold. Only
// primaries split autonomously; the split is forwarded to the replicas
// so their copies bisect deterministically at the same key into the
// same daughter IDs.
func (n *RegionNode) maybeSplit(sr *servedRegion) {
	if n.opts.SplitBytes <= 0 || sr.r.DiskSize() <= n.opts.SplitBytes {
		return
	}
	n.splitMu.Lock()
	defer n.splitMu.Unlock()
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.retired || sr.role != rpc.RolePrimary {
		return
	}
	if sr.r.DiskSize() <= n.opts.SplitBytes { // re-check under the lock
		return
	}
	// middleKey reads SSTable indexes, so recent memtable writes must
	// hit disk first for the bisection to see them.
	if err := sr.r.flush(); err != nil {
		return
	}
	mid := sr.r.middleKey()
	if mid == nil || !sr.kr.Contains(mid) || (sr.kr.Start != nil && bytes.Equal(mid, sr.kr.Start)) {
		return
	}
	n.mu.Lock()
	leftID, rightID := n.allocIDLocked(), n.allocIDLocked()
	n.mu.Unlock()
	if err := n.splitLocked(sr, mid, leftID, rightID); err != nil {
		return
	}
	// Forward to replicas: same IDs, same key, same epoch bump. A
	// replica that cannot split is dropped; the daughters reseed it
	// lazily if the router re-adds it.
	req := rpc.SplitReq{Region: sr.id, Epoch: sr.epoch, SplitKey: mid, LeftID: leftID, RightID: rightID}
	payload := rpc.MarshalAdmin(&req)
	for _, addr := range sr.replicas {
		n.tr.Do(context.Background(), addr, rpc.OpSplit, payload)
	}
	atomic.AddInt64(&n.met.RegionSplits, 1)
}

// middleKey returns an approximate median key of the region, used as a
// split point: the first key of the middle block of the largest SSTable.
func (r *region) middleKey() []byte {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var biggest *table
	for _, t := range r.tables {
		if biggest == nil || t.size > biggest.size {
			biggest = t
		}
	}
	if biggest == nil || len(biggest.index) < 2 {
		return nil
	}
	return biggest.index[len(biggest.index)/2].firstKey
}

// splitLocked bisects sr at mid into two fresh regions (caller holds
// sr.mu write lock and, on the primary path, splitMu). The daughters
// inherit sr's role and replica set at epoch+1; the parent is retired
// and its store removed.
func (n *RegionNode) splitLocked(sr *servedRegion, mid []byte, leftID, rightID uint64) error {
	left, err := openRegion(int(leftID), n.regionDir(leftID), n.opts.Options, n.cache, &n.met)
	if err != nil {
		return err
	}
	right, err := openRegion(int(rightID), n.regionDir(rightID), n.opts.Options, n.cache, &n.met)
	if err != nil {
		left.Close()
		return err
	}
	cleanup := func() {
		left.Close()
		right.Close()
		n.fs.RemoveAll(n.regionDir(leftID))
		n.fs.RemoveAll(n.regionDir(rightID))
	}
	err = sr.r.copyChunks(KeyRange{End: mid}, left.applyBatch)
	if err == nil {
		err = sr.r.copyChunks(KeyRange{Start: mid}, right.applyBatch)
	}
	if err == nil {
		err = left.flush()
	}
	if err == nil {
		err = right.flush()
	}
	if err != nil {
		cleanup()
		return err
	}
	newEpoch := sr.epoch + 1
	lsr := &servedRegion{
		id: leftID, epoch: newEpoch, kr: KeyRange{Start: sr.kr.Start, End: mid},
		role: sr.role, replicas: append([]string(nil), sr.replicas...),
		repSeq: map[string]uint64{}, r: left,
	}
	rsr := &servedRegion{
		id: rightID, epoch: newEpoch, kr: KeyRange{Start: mid, End: sr.kr.End},
		role: sr.role, replicas: append([]string(nil), sr.replicas...),
		repSeq: map[string]uint64{}, r: right,
	}
	parentDir := n.regionDir(sr.id)
	sr.retired = true
	sr.r.Close()
	n.fs.RemoveAll(parentDir)
	n.mu.Lock()
	delete(n.regions, sr.id)
	n.regions[leftID] = lsr
	n.regions[rightID] = rsr
	err = n.saveMetaLocked()
	n.mu.Unlock()
	return err
}

func (n *RegionNode) handleSplit(payload []byte, w *rpc.ResponseWriter) error {
	var req rpc.SplitReq
	if err := rpc.UnmarshalAdmin(payload, &req); err != nil {
		return w.SendErr(rpc.CodeBadRequest, err.Error())
	}
	n.mu.Lock()
	sr := n.regions[req.Region]
	n.mu.Unlock()
	if sr == nil {
		return w.SendErr(rpc.CodeStaleRegion, fmt.Sprintf("no region %d", req.Region))
	}
	n.splitMu.Lock()
	defer n.splitMu.Unlock()
	sr.mu.Lock()
	if sr.retired || sr.epoch != req.Epoch {
		sr.mu.Unlock()
		return w.SendErr(rpc.CodeStaleRegion, "split epoch mismatch")
	}
	err := n.splitLocked(sr, req.SplitKey, req.LeftID, req.RightID)
	sr.mu.Unlock()
	if err != nil {
		return sendKVErr(w, err)
	}
	atomic.AddInt64(&n.met.RegionSplits, 1)
	return w.Send(rpc.OpResp, nil)
}

func (n *RegionNode) handleMerge(payload []byte, w *rpc.ResponseWriter) error {
	var req rpc.MergeReq
	if err := rpc.UnmarshalAdmin(payload, &req); err != nil {
		return w.SendErr(rpc.CodeBadRequest, err.Error())
	}
	if req.Left == req.Right {
		return w.SendErr(rpc.CodeBadRequest, "merge sources must differ")
	}
	n.mu.Lock()
	left, right := n.regions[req.Left], n.regions[req.Right]
	n.mu.Unlock()
	if left == nil || right == nil {
		return w.SendErr(rpc.CodeStaleRegion, "merge source missing")
	}
	n.splitMu.Lock()
	defer n.splitMu.Unlock()
	// Lock both sources in id order so concurrent merges cannot
	// deadlock.
	first, second := left, right
	if second.id < first.id {
		first, second = second, first
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()
	if left.retired || right.retired || !bytes.Equal(left.kr.End, right.kr.Start) ||
		left.kr.End == nil || req.Epoch <= left.epoch || req.Epoch <= right.epoch {
		return w.SendErr(rpc.CodeStaleRegion, "merge sources not adjacent or stale")
	}
	merged, err := openRegion(int(req.NewID), n.regionDir(req.NewID), n.opts.Options, n.cache, &n.met)
	if err != nil {
		return w.SendErr(rpc.CodeInternal, err.Error())
	}
	err = left.r.copyChunks(KeyRange{}, merged.applyBatch)
	if err == nil {
		err = right.r.copyChunks(KeyRange{}, merged.applyBatch)
	}
	if err == nil {
		err = merged.flush()
	}
	if err != nil {
		merged.Close()
		n.fs.RemoveAll(n.regionDir(req.NewID))
		return sendKVErr(w, err)
	}
	msr := &servedRegion{
		id: req.NewID, epoch: req.Epoch,
		kr:   KeyRange{Start: left.kr.Start, End: right.kr.End},
		role: left.role, replicas: append([]string(nil), left.replicas...),
		repSeq: map[string]uint64{}, r: merged,
	}
	left.retired, right.retired = true, true
	left.r.Close()
	right.r.Close()
	n.fs.RemoveAll(n.regionDir(req.Left))
	n.fs.RemoveAll(n.regionDir(req.Right))
	n.mu.Lock()
	delete(n.regions, req.Left)
	delete(n.regions, req.Right)
	n.regions[req.NewID] = msr
	err = n.saveMetaLocked()
	n.mu.Unlock()
	if err != nil {
		return w.SendErr(rpc.CodeInternal, err.Error())
	}
	atomic.AddInt64(&n.met.RegionMerges, 1)
	return w.Send(rpc.OpResp, nil)
}
