package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	mdhf "repro"
	"repro/internal/alloc"
	"repro/internal/bitmap"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/frag"
	"repro/internal/kernel"
	"repro/internal/storage"
)

// perLayer lists every per-layer metric a traced run reports, with its
// unit, in BENCHMARK.json order. Metrics of a layer a workload leaves
// idle read 0.
var perLayer = []struct{ name, unit string }{
	{"mdhf.execute.self_us", "us"},
	{"mdhf.rescache.hit_ratio", "ratio"},
	{"mdhf.rescache.invalidations", "count"},
	{"mdhf.shared.batched_ratio", "ratio"},
	{"mdhf.shared.phys_saved_ratio", "ratio"},
	{"mdhf.append.self_us_per_row", "us/row"},
	{"exec.tasks_per_query", "count"},
	{"exec.dispatch_ns_per_task", "ns"},
	{"frag.fragments_per_query", "count"},
	{"frag.delta_select_ns_per_row", "ns/row"},
	{"frag.delta_seal_ns_per_row", "ns/row"},
	{"bitmap.andall_ns_per_word", "ns/word"},
	{"bitmap.decompress_ns_per_word", "ns/word"},
	{"bitmap.selectivity", "ratio"},
	{"kernel.evalmany_ns_per_row.k1", "ns/row"},
	{"kernel.evalmany_ns_per_row.k8", "ns/row"},
	{"kernel.evalmany_ns_per_row.k32", "ns/row"},
	{"kernel.delta_fold_ns_per_row", "ns/row"},
	{"kernel.merge_ns_per_partial", "ns"},
	{"storage.granule_ns_per_page", "ns/page"},
	{"storage.bitmap_read_ns_per_page", "ns/page"},
	{"storage.pages_per_query", "count"},
	{"storage.rows_read_per_result_row", "ratio"},
	{"storage.pool.hit_ratio", "ratio"},
	{"storage.pool.evictions_per_query", "count"},
	{"storage.disk.ios_per_query", "count"},
	{"storage.disk.imbalance", "ratio"},
	{"storage.disk.busy_ratio", "ratio"},
	{"storage.retries", "count"},
	{"storage.journal_us_per_append", "us"},
	{"storage.build_ms", "ms"},
	{"engine.exec_us_per_query", "us"},
	{"cluster.node_exec_us", "us"},
	{"cluster.wire_encode_us", "us"},
	{"cluster.wire_decode_us", "us"},
	{"cluster.transport.self_us", "us"},
	{"cluster.nodes_per_query", "count"},
	{"cluster.retries", "count"},
	{"cost.fact_io_ratio", "ratio"},
	{"cost.bitmap_io_ratio", "ratio"},
	{"cost.fragments_ratio", "ratio"},
	{"cost.Q1.fact_io_ratio", "ratio"},
	{"cost.Q1.bitmap_io_ratio", "ratio"},
	{"cost.Q1.fragments_ratio", "ratio"},
	{"cost.Q2.fact_io_ratio", "ratio"},
	{"cost.Q2.bitmap_io_ratio", "ratio"},
	{"cost.Q2.fragments_ratio", "ratio"},
	{"cost.Q3.fact_io_ratio", "ratio"},
	{"cost.Q3.bitmap_io_ratio", "ratio"},
	{"cost.Q3.fragments_ratio", "ratio"},
	{"cost.Q4.fact_io_ratio", "ratio"},
	{"cost.Q4.bitmap_io_ratio", "ratio"},
	{"cost.Q4.fragments_ratio", "ratio"},
	{"cost.unsupported.fact_io_ratio", "ratio"},
	{"cost.unsupported.bitmap_io_ratio", "ratio"},
	{"cost.unsupported.fragments_ratio", "ratio"},
	{"cost.response_ratio", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"gen.lag_p99_ms", "ms"},
}

func layerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// layerSample is how many of the workload's queries the layer phase
// replays against each layer.
const layerSample = 200

// fixture is what the layer phase calls into directly: on-disk backends
// of the workload's rows (compressed and uncompressed), the delta index
// and segments of a batch of appended rows, and in-memory cluster nodes
// over the shards.
type fixture struct {
	e      *env
	spec   *frag.Spec
	icfg   frag.IndexConfig
	layout []*bitmap.Layout
	skip   []int
	be     *storage.Backend // compressed bitmaps
	beU    *storage.Backend // uncompressed bitmaps
	ix     *frag.DeltaIndex
	set    *frag.DeltaSet
	segs   [][]*frag.DeltaSegment // per append batch
	nodes  []*cluster.Node
	shards []*mdhf.FactTable
}

// measureLayers calls each layer's public functions on the workload's
// rows and queries, inside spans, and records the per-layer metrics.
func measureLayers(e *env, o *outcome, qs []mdhf.Query, w *mdhf.Warehouse, lay *layerCounters) error {
	if len(qs) > layerSample {
		qs = qs[:layerSample]
	}
	fx, err := newFixture(e, o)
	if err != nil {
		return err
	}
	defer fx.close()
	steps := []func([]mdhf.Query, *outcome) error{
		fx.measureStorage, fx.measureBitmaps, fx.measureKernel, fx.measureDeltas,
		fx.measureExec, fx.measureEngine, fx.measureCluster,
	}
	for _, step := range steps {
		if err := step(qs, o); err != nil {
			return err
		}
	}
	if w != nil {
		if err := measureResponse(e, o, w); err != nil {
			return err
		}
	}
	return nil
}

func newFixture(e *env, o *outcome) (*fixture, error) {
	spec, err := frag.Parse(e.star, fragmentation)
	if err != nil {
		return nil, err
	}
	fx := &fixture{e: e, spec: spec, icfg: frag.APB1Indexes(e.star)}
	_, fx.layout, fx.skip = frag.Survivors(spec, fx.icfg)
	place := alloc.Placement{Disks: disks, Scheme: alloc.RoundRobin, Staggered: true, Cluster: 1}

	// The table a compaction rebuilds: the base rows, plus on the ingest
	// workload every appended row.
	rows := e.table
	batches := genAppendBatches(e.star, e.seed+2, 50, appendBatch)
	if e.name == "ingest_mixed" {
		rows = mergedTable(e.table, genAppendBatches(e.star, e.seed+2, batchesPerSecond*int(e.seconds/time.Second), appendBatch))
	}
	var buildErr error
	d := e.tr.timed("storage.BuildBackend", 0, 0, func() {
		fx.be, buildErr = storage.BuildBackend(filepath.Join(e.dir, "layer-c"), rows, spec, fx.icfg, storage.BackendConfig{Compress: true, Placement: place})
	})
	if buildErr != nil {
		return nil, buildErr
	}
	o.Layers["storage.build_ms"] = float64(d) / float64(time.Millisecond)
	if fx.beU, err = storage.BuildBackend(filepath.Join(e.dir, "layer-u"), e.table, spec, fx.icfg, storage.BackendConfig{Placement: place}); err != nil {
		fx.close()
		return nil, err
	}

	// Delta segments of 50 append batches, one segment per touched
	// fragment per batch, as Append seals them.
	if fx.ix, err = frag.NewDeltaIndex(spec, fx.icfg); err != nil {
		fx.close()
		return nil, err
	}
	var seq uint64
	var sealRows int64
	var seal time.Duration
	for _, b := range batches {
		var segs []*frag.DeltaSegment
		seal += e.tr.timed("frag.SegmentBuilder", 0, 0, func() {
			byFrag := map[int64]*frag.SegmentBuilder{}
			var order []int64
			leaf := make([]int, len(e.star.Dims))
			for _, r := range b {
				for d, l := range r.Leaves {
					leaf[d] = int(l)
				}
				id := spec.ID(spec.CoordOf(leaf))
				sb := byFrag[id]
				if sb == nil {
					sb = fx.ix.NewSegment(id)
					byFrag[id] = sb
					order = append(order, id)
				}
				sb.Add(r.Leaves, r.UnitsSold, r.DollarSales, r.Cost)
			}
			for _, id := range order {
				seq++
				segs = append(segs, byFrag[id].Seal(seq))
			}
		})
		sealRows += int64(len(b))
		for _, s := range segs {
			fx.set = fx.set.With(s)
		}
		fx.segs = append(fx.segs, segs)
	}
	o.Layers["frag.delta_seal_ns_per_row"] = ratio(float64(seal.Nanoseconds()), float64(sealRows))

	cl := alloc.Placement{Disks: disks, Scheme: alloc.RoundRobin}
	fx.shards = cluster.PartitionTable(spec, cl, e.table)
	for k, shard := range fx.shards {
		n, err := cluster.NewNode(cluster.NodeConfig{Spec: spec, Indexes: fx.icfg, Index: k, Cluster: cl, Workers: 1}, shard)
		if err != nil {
			fx.close()
			return nil, err
		}
		fx.nodes = append(fx.nodes, n)
	}
	return fx, nil
}

func (fx *fixture) close() {
	for _, b := range []*storage.Backend{fx.be, fx.beU} {
		if b != nil {
			b.Close()
		}
	}
	for _, n := range fx.nodes {
		n.Close()
	}
}

// operands returns the bitmap descriptors fragment-local evaluation of q
// reads, split into those intersected verbatim and those complemented,
// exactly as the executors select them.
func (fx *fixture) operands(q frag.Query) (pos, neg []storage.BitmapDesc) {
	for _, p := range q.Preds {
		if !fx.spec.NeedsBitmap(p) {
			continue
		}
		if fx.icfg[p.Dim].Kind == frag.SimpleIndexes {
			pos = append(pos, storage.BitmapDesc{Dim: p.Dim, Level: p.Level, Member: p.Member, Simple: true})
			continue
		}
		layout, skip := fx.layout[p.Dim], fx.skip[p.Dim]
		hi := layout.PrefixBits(p.Level)
		pattern := layout.EncodePrefix(p.Level, p.Member)
		for b := skip; b < hi; b++ {
			desc := storage.BitmapDesc{Dim: p.Dim, Bit: b}
			if pattern>>uint(hi-1-b)&1 == 1 {
				pos = append(pos, desc)
			} else {
				neg = append(neg, desc)
			}
		}
	}
	return pos, neg
}

// measureStorage times granule reads (pread + CRC) of every fragment the
// queries touch and the bitmap-fragment reads they need, in the
// workload's bitmap format.
func (fx *fixture) measureStorage(qs []mdhf.Query, o *outcome) error {
	tr := fx.e.tr
	compressed := fx.e.name == "olap_cpu"
	var gran, bm time.Duration
	var granPages, bmPages int64
	buf := []byte{}
	for qi, q := range qs {
		pos, neg := fx.operands(q)
		descs := append(pos, neg...)
		for _, id := range fx.spec.FragmentIDs(q) {
			loc, ok := fx.be.Store.Loc(id)
			if !ok {
				continue
			}
			var err error
			for start := 0; start < int(loc.Pages); start += 8 {
				n := min(8, int(loc.Pages)-start)
				gran += tr.timed("storage.Store.ReadGranule", int64(qi), 0, func() {
					buf, _, _, err = fx.be.Store.ReadGranule(buf, id, start, n)
				})
				if err != nil {
					return err
				}
				granPages += int64(n)
			}
			for _, desc := range descs {
				var pages int
				if compressed {
					bm += tr.timed("storage.BitmapFile.ReadCompressedFragment", int64(qi), 0, func() {
						_, pages, err = fx.be.Bitmaps.ReadCompressedFragment(id, desc)
					})
				} else {
					bm += tr.timed("storage.BitmapFile.ReadBitmapFragment", int64(qi), 0, func() {
						_, pages, err = fx.beU.Bitmaps.ReadBitmapFragment(id, desc)
					})
				}
				if err != nil {
					return err
				}
				bmPages += int64(pages)
			}
		}
	}
	o.Layers["storage.granule_ns_per_page"] = ratio(float64(gran.Nanoseconds()), float64(granPages))
	o.Layers["storage.bitmap_read_ns_per_page"] = ratio(float64(bm.Nanoseconds()), float64(bmPages))
	return nil
}

// measureBitmaps times the k-way AND of each query's operand set per
// fragment and the decompression of its result.
func (fx *fixture) measureBitmaps(qs []mdhf.Query, o *outcome) error {
	tr := fx.e.tr
	var and, dec time.Duration
	var andWords, decWords int64
	var ones, bits float64
	out := &bitmap.Compressed{}
	tmp := &bitmap.Compressed{}
	dst := bitmap.New(0)
	for qi, q := range qs {
		posD, negD := fx.operands(q)
		if len(posD)+len(negD) == 0 {
			continue
		}
		for _, id := range fx.spec.FragmentIDs(q) {
			loc, ok := fx.be.Store.Loc(id)
			if !ok {
				continue
			}
			var pos, neg []*bitmap.Compressed
			var words int64
			for i, desc := range append(posD, negD...) {
				c, _, err := fx.be.Bitmaps.ReadCompressedFragment(id, desc)
				if err != nil {
					return err
				}
				words += int64(len(c.Words()))
				if i < len(posD) {
					pos = append(pos, c)
				} else {
					neg = append(neg, c)
				}
			}
			var res *bitmap.Compressed
			and += tr.timed("bitmap.AndAllInto", int64(qi), 0, func() {
				if len(pos) > 0 {
					res = bitmap.AndAllInto(out, pos...)
				} else {
					res = bitmap.CompressedOnesInto(out, int(loc.Rows))
				}
				for _, n := range neg {
					r := bitmap.AndNotInto(tmp, res, n)
					out, tmp = r, res
					res = r
				}
			})
			andWords += words
			dec += tr.timed("bitmap.DecompressInto", int64(qi), 0, func() { dst = res.DecompressInto(dst) })
			decWords += int64(len(res.Words()))
			ones += float64(res.OnesCount())
			bits += float64(res.Len())
		}
	}
	o.Layers["bitmap.andall_ns_per_word"] = ratio(float64(and.Nanoseconds()), float64(andWords))
	o.Layers["bitmap.decompress_ns_per_word"] = ratio(float64(dec.Nanoseconds()), float64(decWords))
	o.Layers["bitmap.selectivity"] = ratio(ones, bits)
	return nil
}

// fragColumns loads one fragment's rows as kernel columns.
func (fx *fixture) fragColumns(id int64) (kernel.Columns, error) {
	cols := kernel.Columns{Dims: make([][]int32, len(fx.e.star.Dims))}
	err := fx.be.Store.ScanFragment(id, func(t storage.Tuple) {
		for d, k := range t.Keys {
			cols.Dims[d] = append(cols.Dims[d], int32(k))
		}
		cols.Units = append(cols.Units, int64(t.UnitsSold))
		cols.Dollars = append(cols.Dollars, int64(t.DollarSales))
		cols.Costs = append(cols.Costs, int64(t.Cost))
	})
	return cols, err
}

// measureKernel times EvalMany with 1, 8 and 32 slots over fragments the
// queries touch, each slot masked by one query's selection.
func (fx *fixture) measureKernel(qs []mdhf.Query, o *outcome) error {
	tr := fx.e.tr
	// Group the queries' selections by fragment.
	masks := map[int64][]*bitmap.Bitset{}
	var ids []int64
	for _, q := range qs {
		posD, negD := fx.operands(q)
		for _, id := range fx.spec.FragmentIDs(q) {
			loc, ok := fx.be.Store.Loc(id)
			if !ok {
				continue
			}
			res := bitmap.CompressedOnes(int(loc.Rows))
			for i, desc := range append(posD, negD...) {
				c, _, err := fx.be.Bitmaps.ReadCompressedFragment(id, desc)
				if err != nil {
					return err
				}
				if i < len(posD) {
					res = bitmap.And(res, c)
				} else {
					res = bitmap.AndNot(res, c)
				}
			}
			if len(masks[id]) == 0 {
				ids = append(ids, id)
			}
			if len(masks[id]) < 32 {
				masks[id] = append(masks[id], res.Decompress())
			}
		}
	}
	if len(ids) > 48 {
		ids = ids[:48]
	}
	union := bitmap.New(0)
	for _, k := range []int{1, 8, 32} {
		var d time.Duration
		var rows int64
		for _, id := range ids {
			cols, err := fx.fragColumns(id)
			if err != nil {
				return err
			}
			n := len(cols.Units)
			slots := make([]*kernel.Slot, k)
			ms := make([]*bitmap.Bitset, k)
			for i := range slots {
				s := kernel.NewSlot(nil, id)
				slots[i] = &s
				ms[i] = masks[id][i%len(masks[id])]
			}
			d += tr.timed(fmt.Sprintf("kernel.EvalMany.k%d", k), id, 0, func() { kernel.EvalMany(slots, ms, n, cols, union) })
			rows += int64(n)
		}
		o.Layers[fmt.Sprintf("kernel.evalmany_ns_per_row.k%d", k)] = ratio(float64(d.Nanoseconds()), float64(rows))
	}
	return nil
}

// measureDeltas times delta selection and the delta fold over the
// fixture's delta set, and journaling its segments.
func (fx *fixture) measureDeltas(qs []mdhf.Query, o *outcome) error {
	tr := fx.e.tr
	sc := frag.NewDeltaScratch()
	deltas := kernel.Deltas{Ix: fx.ix, Set: fx.set}
	var sel, fold time.Duration
	var selRows, foldRows int64
	for qi, q := range qs {
		for _, id := range fx.spec.FragmentIDs(q) {
			segs := fx.set.Of(id)
			if len(segs) == 0 {
				continue
			}
			var err error
			for _, seg := range segs {
				sel += tr.timed("frag.DeltaIndex.Select", int64(qi), 0, func() { _, _, err = fx.ix.Select(seg, q, sc) })
				if err != nil {
					return err
				}
				selRows += int64(seg.Rows())
			}
			var p kernel.FragPartial
			fold += tr.timed("kernel.AddDelta", int64(qi), 0, func() { _, err = kernel.AddDelta(deltas, id, q, &p, 0, nil, sc) })
			if err != nil {
				return err
			}
			for _, seg := range segs {
				foldRows += int64(seg.Rows())
			}
		}
	}
	o.Layers["frag.delta_select_ns_per_row"] = ratio(float64(sel.Nanoseconds()), float64(selRows))
	o.Layers["kernel.delta_fold_ns_per_row"] = ratio(float64(fold.Nanoseconds()), float64(foldRows))

	dlog, _, err := storage.OpenDeltaLog(filepath.Join(fx.e.dir, "layer-journal"), fx.e.star)
	if err != nil {
		return err
	}
	defer dlog.Close()
	var journal time.Duration
	for bi, segs := range fx.segs {
		journal += tr.timed("storage.DeltaLog.AppendSegment", int64(bi), 0, func() {
			for _, s := range segs {
				if err == nil {
					err = dlog.AppendSegment(s, false)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	perAppend := ratio(float64(journal.Microseconds()), float64(len(fx.segs)))
	o.Layers["storage.journal_us_per_append"] = perAppend
	// Append's own share: its span minus what journaling the same kind of
	// batch costs, per row (ingest_mixed only; other workloads append
	// nothing).
	if s, ok := summarizeSpans(fx.e.tr.snapshot())["mdhf.append"]; ok && s.Count > 0 {
		meanUs := float64(s.Total.Microseconds()) / float64(s.Count)
		o.Layers["mdhf.append.self_us_per_row"] = (meanUs - perAppend) / appendBatch
	} else {
		o.Layers["mdhf.append.self_us_per_row"] = 0
	}
	return nil
}

// measureExec times dispatching no-op tasks through a scheduler of the
// workload's size.
func (fx *fixture) measureExec(_ []mdhf.Query, o *outcome) error {
	workers := 2
	if fx.e.name == "dashboard_disk" {
		workers = dashWorkers
	}
	s := exec.NewScheduler(workers)
	defer s.Close()
	const tasks, reps = 1000, 50
	var err error
	d := fx.e.tr.timed("exec.MapOn", 0, 0, func() {
		for r := 0; r < reps && err == nil; r++ {
			_, err = exec.MapOn(context.Background(), s, tasks, func() struct{} { return struct{}{} },
				func(struct{}, int) (int, error) { return 0, nil })
		}
	})
	o.Layers["exec.dispatch_ns_per_task"] = ratio(float64(d.Nanoseconds()), tasks*reps)
	return err
}

// measureEngine times the in-memory compressed engine on one node's
// shard.
func (fx *fixture) measureEngine(qs []mdhf.Query, o *outcome) error {
	eng, err := engine.BuildCompressed(fx.shards[0], fx.spec, fx.icfg)
	if err != nil {
		return err
	}
	s := exec.NewScheduler(1)
	defer s.Close()
	var d time.Duration
	for qi, q := range qs {
		d += fx.e.tr.timed("engine.ExecuteGroupedDeltas", int64(qi), 0, func() {
			_, _, err = eng.ExecuteGroupedDeltas(context.Background(), s, q, kernel.Deltas{})
		})
		if err != nil {
			return err
		}
	}
	o.Layers["engine.exec_us_per_query"] = ratio(float64(d.Microseconds()), float64(len(qs)))
	return nil
}

// measureCluster times a node's sub-query execution, the wire encoding
// of its responses and the merge of their partials.
func (fx *fixture) measureCluster(qs []mdhf.Query, o *outcome) error {
	tr := fx.e.tr
	ctx := context.Background()
	var execD, enc, dec, merge time.Duration
	var subs, partials int64
	for qi, q := range qs {
		req := cluster.Request{Preds: q.Preds, GroupBy: q.GroupBy}
		var total kernel.Aggregate
		for _, n := range fx.nodes {
			var resp cluster.Response
			var err error
			execD += tr.timed("cluster.Node.Exec", int64(qi), 0, func() { resp, err = n.Exec(ctx, req) })
			if err != nil {
				return err
			}
			subs++
			var data []byte
			enc += tr.timed("cluster.EncodeResponse", int64(qi), 0, func() { data, err = cluster.EncodeResponse(resp) })
			if err != nil {
				return err
			}
			dec += tr.timed("cluster.DecodeResponse", int64(qi), 0, func() { resp, err = cluster.DecodeResponse(data) })
			if err != nil {
				return err
			}
			p := resp.Partial()
			merge += tr.timed("kernel.FragPartial.MergeInto", int64(qi), 0, func() { p.MergeInto(&total, nil) })
			partials++
		}
	}
	o.Layers["cluster.node_exec_us"] = ratio(float64(execD.Microseconds()), float64(subs))
	o.Layers["cluster.wire_encode_us"] = ratio(float64(enc.Nanoseconds())/1e3, float64(subs))
	o.Layers["cluster.wire_decode_us"] = ratio(float64(dec.Nanoseconds())/1e3, float64(subs))
	o.Layers["kernel.merge_ns_per_partial"] = ratio(float64(merge.Nanoseconds()), float64(partials))
	return nil
}

// measureResponse compares solo execution latency of the disk-bound
// workload against the per-disk queue response model (Section 4.6), on
// queries the result cache has not seen.
func measureResponse(e *env, o *outcome, w *mdhf.Warehouse) error {
	o.Layers["cost.response_ratio"] = 0
	if e.ioDelay() == 0 {
		return nil
	}
	qs, err := genQueries(e.star, e.seed+7, 40, uniformMembers)
	if err != nil {
		return err
	}
	var measured, modelled time.Duration
	for qi, q := range qs {
		p := w.Query(q)
		var st mdhf.Stats
		d := e.tr.timed("mdhf.execute.solo", int64(qi), 0, func() { _, st, err = p.Execute(e.ctx) })
		if err != nil {
			return err
		}
		if st.CacheHit || st.Shared {
			continue
		}
		ex, err := p.Explain(e.ctx)
		if err != nil {
			return err
		}
		measured += d
		modelled += ex.Response.Response
	}
	o.Layers["cost.response_ratio"] = ratio(float64(measured), float64(modelled))
	return nil
}

// mergedTable is base plus every appended row, in arrival order.
func mergedTable(base *mdhf.FactTable, batches [][]mdhf.FactRow) *mdhf.FactTable {
	t := &mdhf.FactTable{Star: base.Star, Dims: make([][]int32, len(base.Dims))}
	for d := range base.Dims {
		t.Dims[d] = append([]int32(nil), base.Dims[d]...)
	}
	t.UnitsSold = append([]int64(nil), base.UnitsSold...)
	t.DollarSales = append([]int64(nil), base.DollarSales...)
	t.Cost = append([]int64(nil), base.Cost...)
	for _, b := range batches {
		bt := batchTable(base.Star, b)
		for d := range t.Dims {
			t.Dims[d] = append(t.Dims[d], bt.Dims[d]...)
		}
		t.UnitsSold = append(t.UnitsSold, bt.UnitsSold...)
		t.DollarSales = append(t.DollarSales, bt.DollarSales...)
		t.Cost = append(t.Cost, bt.Cost...)
	}
	return t
}

// addSpanMetrics derives the span-based metrics of the load phase and
// writes every span out under .bench_build/traces.
func addSpanMetrics(e *env, o *outcome) {
	spans := e.tr.snapshot()
	sums := summarizeSpans(spans)
	if _, ok := o.Layers["mdhf.execute.self_us"]; !ok {
		o.Layers["mdhf.execute.self_us"] = 0
	}
	if _, ok := o.Layers["cluster.transport.self_us"]; !ok {
		o.Layers["cluster.transport.self_us"] = meanSelfUs(sums, "cluster.transport")
	}
	if _, ok := o.Layers["gen.lag_p99_ms"]; !ok {
		o.Layers["gen.lag_p99_ms"] = 0
	}
	for _, m := range perLayer {
		if _, ok := o.Layers[m.name]; !ok && strings.HasPrefix(m.name, "cost.") {
			o.Layers[m.name] = 0 // a confinement class the workload never ran
		}
	}
	dir := filepath.Join(".bench_build", "traces")
	if os.MkdirAll(dir, 0o755) != nil {
		return
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", e.name, e.seed)))
	if err != nil {
		return
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, s := range spans {
		enc.Encode(s)
	}
}
