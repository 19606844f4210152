package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/storage"
)

// ErrNodeClosed is returned by operations on a closed Node.
var ErrNodeClosed = errors.New("cluster: node is closed")

// NodeConfig describes one node's shard and execution backend. The
// fragmentation, index configuration and cluster placement must be
// identical on every node (and on the coordinator) — they are the
// contract that makes the nodes' fragment ranges disjoint and the
// merged partials byte-identical to a single-node execution.
type NodeConfig struct {
	// Spec is the MDHF fragmentation (required).
	Spec *frag.Spec
	// Indexes is the bitmap index configuration (required).
	Indexes frag.IndexConfig
	// Index is this node's position in the cluster placement.
	Index int
	// Cluster is the node-level placement: Disks is the node count and
	// Scheme/Staggered/Cluster the same knobs the per-disk placement has,
	// reused one level up. Disks <= 1 means a single node owning every
	// fragment.
	Cluster alloc.Placement

	// OnDisk selects the paged-file backend; Dir is its root ("" means a
	// temporary directory owned and removed by the node). The in-memory
	// engine is the default.
	OnDisk bool
	Dir    string
	// Compress stores/executes WAH-compressed bitmaps.
	Compress bool
	// Disks declusters the node's on-disk backend over its own disk set
	// with DiskScheme and Staggered (the per-disk tier of the two-tier
	// model); 0 means one plain store.
	Disks      int
	DiskScheme alloc.Scheme
	Staggered  bool
	// PrefetchFact is the fact read granule in pages (0 = default 8).
	PrefetchFact int
	// IODelay simulates per-access disk latency when IODelaySet.
	IODelay    time.Duration
	IODelaySet bool
	// Workers sizes the node's own scheduler pool (<1 = one per CPU);
	// AdmitLimit bounds concurrently admitted executions (0 = unbounded),
	// shedding excess with exec.ErrOverloaded.
	Workers    int
	AdmitLimit int
	// FaultPlan and Retry install disk-fault injection and the physical
	// read retry policy on the node's disk set.
	FaultPlan *storage.FaultPlan
	Retry     *storage.RetryPolicy
	// SharedWindow enables shared multi-query scans on this node:
	// sub-requests admitted within the window against the same serving
	// state batch into one scan over their fragment union (see the
	// warehouse's WithSharedScans). <= 0 disables sharing.
	SharedWindow time.Duration
}

// nodeBackend is one epoch's backend on a node, reference-counted
// exactly like the warehouse's: the serving snapshot holds one
// reference, every pinned execution another; a retired backend cleans
// up when the last pin drops.
type nodeBackend struct {
	engine *engine.Engine
	be     *storage.Backend
	table  *data.Table
	dir    string
	own    bool
	epoch  int64

	refs    atomic.Int64
	retired atomic.Bool
}

// nodeSnap is what one node execution pins: an epoch's backend plus the
// delta set sealed so far.
type nodeSnap struct {
	epoch  int64
	b      *nodeBackend
	deltas *frag.DeltaSet
}

// Node serves one shard of a declustered cluster: the fragments the
// cluster placement assigns to its index, executed on its own scheduler
// with bounded admission, snapshot pinning, delta ingestion and
// epoch-rolling compaction — the single-node serving machinery scoped to
// a fragment range. All methods are safe for concurrent use.
type Node struct {
	cfg    NodeConfig
	sched  *exec.Scheduler
	ix     *frag.DeltaIndex
	shared *exec.Batcher[nodeSharedKey, Request, nodeSharedOut]

	mu     sync.Mutex // guards closed, cur, bgErr
	closed bool
	cur    nodeSnap
	bgErr  error

	wg         sync.WaitGroup
	appendMu   sync.Mutex // serialises Append and the compaction swap
	compacting bool       // guarded by appendMu
	seq        uint64     // guarded by appendMu

	compactMu sync.Mutex // serialises compaction runs

	rootDir string
	ownRoot bool

	failed atomic.Bool

	queries       atomic.Int64
	appends       atomic.Int64
	appendedRows  atomic.Int64
	compactions   atomic.Int64
	compactedRows atomic.Int64
}

// NewNode builds a node serving the given shard at epoch 0. The rows
// must all belong to fragments the node owns (PartitionTable produces
// exactly that); ownership is enforced on Append, while the initial
// build trusts its caller. The caller must Close the node.
func NewNode(cfg NodeConfig, rows *data.Table) (*Node, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("cluster: NodeConfig.Spec is required")
	}
	if cfg.Cluster.Disks < 1 {
		cfg.Cluster.Disks = 1
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if cfg.Index < 0 || cfg.Index >= cfg.Cluster.Disks {
		return nil, fmt.Errorf("cluster: node index %d out of range [0,%d)", cfg.Index, cfg.Cluster.Disks)
	}
	if rows == nil || rows.Star != cfg.Spec.Star() {
		return nil, fmt.Errorf("cluster: node rows missing or generated for a different schema")
	}
	ix, err := frag.NewDeltaIndex(cfg.Spec, cfg.Indexes)
	if err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, ix: ix, sched: exec.NewScheduler(cfg.Workers)}
	if cfg.AdmitLimit > 0 {
		n.sched.SetLimit(cfg.AdmitLimit)
	}
	if cfg.SharedWindow > 0 {
		n.shared = exec.NewBatcher[nodeSharedKey, Request, nodeSharedOut](cfg.SharedWindow)
	}
	b, err := n.buildBackend(rows, 0)
	if err != nil {
		n.sched.Close()
		n.removeOwnedRoot()
		return nil, err
	}
	n.cur = nodeSnap{epoch: 0, b: b}
	return n, nil
}

// Index returns the node's position in the cluster placement.
func (n *Node) Index() int { return n.cfg.Index }

// owns returns the ownership filter for this node's fragment range (nil
// on a single-node cluster: every fragment is local).
func (n *Node) owns() func(int64) bool {
	if n.cfg.Cluster.Disks <= 1 {
		return nil
	}
	cl, idx := n.cfg.Cluster, n.cfg.Index
	return func(id int64) bool { return cl.FactDisk(id) == idx }
}

// Fail kills the node: every subsequent request fails fast with a typed
// NodeError wrapping ErrNodeFailed until Revive. In-flight executions
// finish normally (their snapshot stays pinned) — the fault model is a
// node that stops accepting work, not one that corrupts it.
func (n *Node) Fail() { n.failed.Store(true) }

// Revive brings a killed node back.
func (n *Node) Revive() { n.failed.Store(false) }

// Failed reports whether the node is killed.
func (n *Node) Failed() bool { return n.failed.Load() }

// begin registers one in-flight operation.
func (n *Node) begin() (func(), error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrNodeClosed
	}
	n.wg.Add(1)
	return n.wg.Done, nil
}

// pin acquires the current snapshot for one execution.
func (n *Node) pin() nodeSnap {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cur.b.refs.Add(1)
	return n.cur
}

func (n *Node) unpin(b *nodeBackend) {
	if b.refs.Add(-1) == 0 && b.retired.Load() {
		n.cleanupBackend(b)
	}
}

func (n *Node) retire(b *nodeBackend) {
	b.retired.Store(true)
	n.unpin(b)
}

func (n *Node) cleanupBackend(b *nodeBackend) {
	var err error
	if b.be != nil {
		err = errors.Join(err, b.be.Close())
	}
	if b.own && b.dir != "" {
		err = errors.Join(err, os.RemoveAll(b.dir))
	}
	if err != nil {
		n.mu.Lock()
		n.bgErr = errors.Join(n.bgErr, err)
		n.mu.Unlock()
	}
}

// nodeErr wraps a node-side failure with the node index.
func (n *Node) nodeErr(err error) error {
	return &NodeError{Node: n.cfg.Index, Err: err}
}

// Exec runs one scattered sub-query over the fragments this node owns
// and returns the node's partial. The execution is admitted to the
// node's own scheduler (shedding with exec.ErrOverloaded past the
// admission limit) and pins the node's serving snapshot, so concurrent
// appends and compactions never change an in-flight partial.
func (n *Node) Exec(ctx context.Context, req Request) (Response, error) {
	n.queries.Add(1)
	if n.failed.Load() {
		return Response{}, n.nodeErr(ErrNodeFailed)
	}
	release, err := n.begin()
	if err != nil {
		return Response{}, n.nodeErr(err)
	}
	defer release()
	snap := n.pin()
	defer n.unpin(snap.b)
	if n.shared != nil {
		resp, handled, err := n.execShared(ctx, snap, req)
		if handled {
			return resp, err
		}
		// Batch-wide failure: fall back to solo execution below, so node-
		// side batching is only ever a performance effect.
	}
	q := req.Query()
	deltas := kernel.Deltas{Ix: n.ix, Set: snap.deltas}
	resp := Response{Epoch: snap.epoch, Grouped: len(q.GroupBy) > 0}
	if snap.b.engine != nil {
		p, st, err := snap.b.engine.ExecutePartialDeltas(ctx, n.sched, q, deltas, n.owns())
		if err != nil {
			return Response{}, n.nodeErr(err)
		}
		resp.Engine = st
		resp.DeltaRows = st.DeltaRows
		packPartial(&resp, p)
		return resp, nil
	}
	p, io, err := snap.b.be.Exec.ExecutePartialDeltas(ctx, q, deltas, n.owns())
	if err != nil {
		return Response{}, n.nodeErr(err)
	}
	resp.IO = io
	resp.Engine.FragmentsProcessed = int(io.Fragments)
	resp.DeltaRows = io.DeltaRows
	packPartial(&resp, p)
	return resp, nil
}

// nodeSharedKey partitions batch compatibility exactly like the
// warehouse's: same epoch plus same delta high-water mark means a
// byte-identical serving state.
type nodeSharedKey struct {
	epoch int64
	seq   uint64
}

// nodeSharedOut is one batched sub-request's outcome: its assembled
// response, or its per-query error.
type nodeSharedOut struct {
	resp Response
	err  error
}

// execShared routes one sub-request through the node's admission
// batcher. handled=false reports a batch-wide failure the caller should
// retry solo; per-query errors (validation) come back handled with the
// error attributed to this node.
func (n *Node) execShared(ctx context.Context, snap nodeSnap, req Request) (Response, bool, error) {
	key := nodeSharedKey{epoch: snap.epoch, seq: snap.deltas.MaxSeq()}
	out, _, err := n.shared.Do(ctx, key, req, func(items []Request) ([]nodeSharedOut, error) {
		return n.runSharedBatch(ctx, snap, items)
	})
	if err != nil {
		if ctx.Err() != nil {
			return Response{}, true, err
		}
		return Response{}, false, err
	}
	if out.err != nil {
		return Response{}, true, n.nodeErr(out.err)
	}
	return out.resp, true, nil
}

// runSharedBatch executes one sealed batch of sub-requests in a single
// shared pass over the fragments this node owns, assembling each
// member's Response exactly as solo Exec would.
func (n *Node) runSharedBatch(ctx context.Context, snap nodeSnap, items []Request) ([]nodeSharedOut, error) {
	qs := make([]frag.Query, len(items))
	for i := range items {
		qs[i] = items[i].Query()
	}
	deltas := kernel.Deltas{Ix: n.ix, Set: snap.deltas}
	outs := make([]nodeSharedOut, len(items))
	if snap.b.engine != nil {
		rs, err := snap.b.engine.ExecuteSharedDeltas(ctx, n.sched, qs, deltas, n.owns())
		if err != nil {
			return nil, err
		}
		for i, r := range rs {
			if r.Err != nil {
				outs[i].err = r.Err
				continue
			}
			resp := Response{Epoch: snap.epoch, Grouped: len(qs[i].GroupBy) > 0}
			resp.Engine = r.St
			resp.DeltaRows = r.St.DeltaRows
			resp.Shared = r.Shared
			packPartial(&resp, r.Part)
			outs[i].resp = resp
		}
		return outs, nil
	}
	rs, err := snap.b.be.Exec.ExecuteSharedDeltas(ctx, qs, deltas, n.owns())
	if err != nil {
		return nil, err
	}
	for i, r := range rs {
		if r.Err != nil {
			outs[i].err = r.Err
			continue
		}
		resp := Response{Epoch: snap.epoch, Grouped: len(qs[i].GroupBy) > 0}
		resp.IO = r.St
		resp.Engine.FragmentsProcessed = int(r.St.Fragments)
		resp.DeltaRows = r.St.DeltaRows
		resp.Shared = r.Shared
		packPartial(&resp, r.Part)
		outs[i].resp = resp
	}
	return outs, nil
}

// Append ingests a batch of rows into the node's delta set. Every row
// must belong to a fragment this node owns — the single-writer-per-
// fragment invariant; rows for foreign fragments are rejected before
// anything is admitted. Within each fragment the rows keep arrival
// order, small tail segments coalesce (except while a compaction has
// frozen its boundary), and the new delta set publishes atomically:
// queries admitted after Append returns see the rows, pinned ones do
// not.
func (n *Node) Append(ctx context.Context, rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	if n.failed.Load() {
		return n.nodeErr(ErrNodeFailed)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	release, err := n.begin()
	if err != nil {
		return n.nodeErr(err)
	}
	defer release()
	star := n.cfg.Spec.Star()
	buf := make([]int, len(star.Dims))
	ids := make([]int64, len(rows))
	for ri := range rows {
		r := &rows[ri]
		if len(r.Leaves) != len(star.Dims) {
			return n.nodeErr(fmt.Errorf("append row %d has %d leaves for %d dimensions", ri, len(r.Leaves), len(star.Dims)))
		}
		for d, leaf := range r.Leaves {
			if leaf < 0 || int(leaf) >= star.Dims[d].LeafCard() {
				return n.nodeErr(fmt.Errorf("append row %d: %s leaf %d out of range [0,%d)", ri, star.Dims[d].Name, leaf, star.Dims[d].LeafCard()))
			}
			buf[d] = int(leaf)
		}
		id := n.cfg.Spec.ID(n.cfg.Spec.CoordOf(buf))
		if NodeOf(n.cfg.Cluster, id) != n.cfg.Index {
			return n.nodeErr(fmt.Errorf("append row %d: fragment %d owned by node %d, not %d (single-writer-per-fragment)",
				ri, id, NodeOf(n.cfg.Cluster, id), n.cfg.Index))
		}
		ids[ri] = id
	}

	n.appendMu.Lock()
	defer n.appendMu.Unlock()

	byFrag := make(map[int64][]int)
	var order []int64
	for ri := range rows {
		if _, ok := byFrag[ids[ri]]; !ok {
			order = append(order, ids[ri])
		}
		byFrag[ids[ri]] = append(byFrag[ids[ri]], ri)
	}

	n.mu.Lock()
	set := n.cur.deltas
	n.mu.Unlock()
	for _, id := range order {
		var sb *frag.SegmentBuilder
		replace := false
		if tail := set.Tail(id); tail != nil && !n.compacting && tail.Rows() < coalesceRows {
			sb = n.ix.ExtendSegment(tail)
			replace = true
		} else {
			sb = n.ix.NewSegment(id)
		}
		for _, ri := range byFrag[id] {
			r := &rows[ri]
			sb.Add(r.Leaves, r.UnitsSold, r.DollarSales, r.Cost)
		}
		n.seq++
		seg := sb.Seal(n.seq)
		if replace {
			set = set.WithTailReplaced(seg)
		} else {
			set = set.With(seg)
		}
	}

	n.mu.Lock()
	n.cur.deltas = set
	n.mu.Unlock()
	n.appends.Add(1)
	n.appendedRows.Add(int64(len(rows)))
	return nil
}

// coalesceRows mirrors the warehouse's tail-coalescing bound.
const coalesceRows = 4096

// Compact synchronously folds the node's sealed delta segments into a
// rebuilt backend at the next epoch — the warehouse's three-phase
// epoch roll-over scoped to one shard. It is a no-op when nothing was
// appended; queries keep being admitted throughout (pinning the old
// epoch) and appends keep landing past the frozen boundary.
func (n *Node) Compact(ctx context.Context) error {
	if n.failed.Load() {
		return n.nodeErr(ErrNodeFailed)
	}
	release, err := n.begin()
	if err != nil {
		return n.nodeErr(err)
	}
	defer release()
	n.compactMu.Lock()
	defer n.compactMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Phase 1: freeze the boundary.
	n.appendMu.Lock()
	n.mu.Lock()
	snap := n.cur
	if snap.deltas.Rows() == 0 {
		n.mu.Unlock()
		n.appendMu.Unlock()
		return nil
	}
	snap.b.refs.Add(1)
	n.mu.Unlock()
	boundary := snap.deltas.MaxSeq()
	n.compacting = true
	n.appendMu.Unlock()
	defer n.unpin(snap.b)
	clearCompacting := func() {
		n.appendMu.Lock()
		n.compacting = false
		n.appendMu.Unlock()
	}

	// Phase 2: rebuild, lock-free.
	merged := kernel.MergedTable(snap.b.table, snap.deltas)
	nb, err := n.buildBackend(merged, snap.epoch+1)
	if err != nil {
		clearCompacting()
		return n.nodeErr(err)
	}

	// Phase 3: swap.
	n.appendMu.Lock()
	n.mu.Lock()
	old := n.cur
	n.cur = nodeSnap{epoch: snap.epoch + 1, b: nb, deltas: old.deltas.After(boundary)}
	n.mu.Unlock()
	n.compacting = false
	n.appendMu.Unlock()
	n.retire(old.b)
	n.compactions.Add(1)
	n.compactedRows.Add(snap.deltas.Rows())
	return nil
}

// Stats snapshots the node's serving counters.
func (n *Node) Stats() NodeStats {
	st := NodeStats{
		Index:         n.cfg.Index,
		Appends:       n.appends.Load(),
		AppendedRows:  n.appendedRows.Load(),
		Compactions:   n.compactions.Load(),
		CompactedRows: n.compactedRows.Load(),
		Queries:       n.queries.Load(),
		Failed:        n.failed.Load(),
		Sched:         n.sched.Stats(),
	}
	n.mu.Lock()
	st.Epoch = n.cur.epoch
	st.DeltaSegments = n.cur.deltas.Segments()
	st.DeltaRows = n.cur.deltas.Rows()
	n.mu.Unlock()
	return st
}

// Close drains in-flight work, stops the scheduler, closes the backend
// files and removes the node's own temporary directory.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	n.wg.Wait()
	n.sched.Close()
	n.mu.Lock()
	cur := n.cur
	n.cur = nodeSnap{}
	n.mu.Unlock()
	if cur.b != nil {
		n.retire(cur.b)
	}
	var err error
	if n.ownRoot && n.rootDir != "" {
		err = errors.Join(err, os.RemoveAll(n.rootDir))
	}
	n.mu.Lock()
	err = errors.Join(err, n.bgErr)
	n.bgErr = nil
	n.mu.Unlock()
	return err
}

// buildBackend builds one epoch's backend from the node's base rows —
// the in-memory engine, or an on-disk Backend in its own epoch
// subdirectory of the node root.
func (n *Node) buildBackend(t *data.Table, epoch int64) (*nodeBackend, error) {
	b := &nodeBackend{table: t, epoch: epoch}
	b.refs.Store(1)
	if !n.cfg.OnDisk {
		var err error
		if n.cfg.Compress {
			b.engine, err = engine.BuildCompressed(t, n.cfg.Spec, n.cfg.Indexes)
		} else {
			b.engine, err = engine.Build(t, n.cfg.Spec, n.cfg.Indexes)
		}
		if err != nil {
			return nil, err
		}
		return b, nil
	}
	if n.rootDir == "" {
		dir := n.cfg.Dir
		if dir == "" {
			var err error
			dir, err = os.MkdirTemp("", fmt.Sprintf("mdhf-node%02d-*", n.cfg.Index))
			if err != nil {
				return nil, err
			}
			n.ownRoot = true
		}
		n.rootDir = dir
	}
	epochDir := filepath.Join(n.rootDir, fmt.Sprintf("epoch-%03d", epoch))
	cfg := storage.BackendConfig{
		Compress:     n.cfg.Compress,
		PrefetchFact: n.cfg.PrefetchFact,
		Sched:        n.sched,
	}
	if n.cfg.Disks > 0 {
		cfg.Placement = alloc.Placement{Disks: n.cfg.Disks, Scheme: n.cfg.DiskScheme, Staggered: n.cfg.Staggered}
	}
	be, err := storage.BuildBackend(epochDir, t, n.cfg.Spec, n.cfg.Indexes, cfg)
	if err != nil {
		os.RemoveAll(epochDir)
		return nil, err
	}
	if be.Disks != nil {
		if n.cfg.Retry != nil {
			be.Disks.SetRetryPolicy(*n.cfg.Retry)
		}
		if n.cfg.FaultPlan != nil {
			be.Disks.SetFaultPlan(n.cfg.FaultPlan)
		}
	}
	if n.cfg.IODelaySet {
		if be.Disks != nil {
			be.Disks.SetIODelay(n.cfg.IODelay)
		} else {
			be.Store.SetIODelay(n.cfg.IODelay)
			be.Bitmaps.SetIODelay(n.cfg.IODelay)
		}
	}
	b.be, b.dir, b.own = be, epochDir, true
	return b, nil
}

// removeOwnedRoot deletes the node's own temporary root after a failed
// build.
func (n *Node) removeOwnedRoot() {
	if n.ownRoot && n.rootDir != "" {
		os.RemoveAll(n.rootDir)
		n.rootDir, n.ownRoot = "", false
	}
}
