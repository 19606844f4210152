package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	mdhf "repro"
)

// span is one recorded call into a layer: its name, interval, the span
// that caused it and the request it belongs to.
type span struct {
	Name   string
	ID     int64
	Parent int64
	Req    int64
	Start  time.Duration // from the tracer's epoch
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span begun but not yet ended.
type openSpan struct {
	t  *tracer
	id int64
	sp span
}

// begin opens a span for request req under parent (0 for a root span).
func (t *tracer) begin(name string, req, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	id := t.nextID.Add(1)
	return openSpan{t: t, id: id, sp: span{Name: name, ID: id, Parent: parent, Req: req, Start: time.Since(t.epoch)}}
}

// end closes the span and records it.
func (s openSpan) end() {
	if s.t == nil {
		return
	}
	s.sp.End = time.Since(s.t.epoch)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.sp)
	s.t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, req, parent int64, fn func()) time.Duration {
	sp := t.begin(name, req, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sp.end()
	return d
}

// spanSummary is the count, total and self time of one span name.
type spanSummary struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// summarizeSpans computes every span's self time — its duration minus
// the part of its interval that its children cover — and sums both per
// span name.
func summarizeSpans(spans []span) map[string]spanSummary {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanSummary{}
	for _, s := range spans {
		dur := s.End - s.Start
		sum := out[s.Name]
		sum.Count++
		sum.Total += dur
		sum.Self += dur - covered(s, children[s.ID])
		out[s.Name] = sum
	}
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// layerCounters accumulates the per-query counters a traced run reads
// from the statistics each Execute returns, plus the warehouse-wide
// counters over the same interval.
type layerCounters struct {
	e    *env
	w    *mdhf.Warehouse // nil for the cluster
	spec *mdhf.Fragmentation
	// tasksRun reads the scheduler's tasks-run counter (summed over the
	// nodes of a cluster).
	tasksRun func() int64

	mu sync.Mutex
	layerCounts
}

// layerCounts is one measurement interval of a layerCounters.
type layerCounts struct {
	queries    int64
	executed   int64 // not served from the result cache
	fragments  int64
	pages      int64
	rowsRead   int64
	resultRows int64
	nodesUsed  int64
	retries    int64
	scattered  int64
	byClass    map[mdhf.QueryClass]*classCost
	selfTime   time.Duration // Execute spans minus the backend time they report
	startTasks int64
	start      mdhf.ServingStats
	startDisks []mdhf.DiskStats
	startTime  time.Time
}

// classCost sums measured and modelled I/O of one confinement class.
type classCost struct {
	n                                     int64
	factPages, bitmapPages, frags         int64
	estFactPages, estBitmapPages, estFrag int64
}

func newLayerCounters(e *env, w *mdhf.Warehouse, tasksRun func() int64) *layerCounters {
	spec, _ := mdhf.ParseFragmentation(e.star, fragmentation) // fragmentation is a valid constant
	return &layerCounters{e: e, w: w, spec: spec, tasksRun: tasksRun, layerCounts: layerCounts{byClass: map[mdhf.QueryClass]*classCost{}}}
}

// warehouseTasks reads a warehouse's tasks-run counter.
func warehouseTasks(w *mdhf.Warehouse) func() int64 {
	return func() int64 { return w.ServingStats().TasksRun }
}

// reset starts a fresh measurement interval.
func (l *layerCounters) reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.layerCounts = layerCounts{byClass: map[mdhf.QueryClass]*classCost{}, startTime: time.Now(), startTasks: l.tasksRun()}
	if l.w != nil {
		l.start = l.w.ServingStats()
		l.startDisks = l.w.DiskStats()
	}
}

// add folds in one execution's statistics; d is its Execute span and
// matched the number of fact rows its result aggregates.
func (l *layerCounters) add(q mdhf.Query, st mdhf.Stats, d time.Duration, matched int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queries++
	if st.CacheHit || st.Shared {
		return
	}
	l.executed++
	l.selfTime += d - st.Wall
	l.fragments += int64(st.Engine.FragmentsProcessed)
	l.pages += st.IO.FactPages + st.IO.BitmapPages
	l.rowsRead += st.IO.RowsRead + st.Engine.RowsScanned + st.DeltaRows
	l.resultRows += matched
	if st.Cluster != nil {
		l.scattered++
		l.nodesUsed += int64(st.Cluster.NodesUsed)
		l.retries += st.Cluster.Retries
	}
	if st.IO.FactPages > 0 || st.IO.BitmapPages > 0 {
		c := mdhf.EstimateCost(l.spec, mdhf.APB1Indexes(l.e.star), q, mdhf.DefaultCostParams())
		cls := l.spec.Classify(q)
		cc := l.byClass[cls]
		if cc == nil {
			cc = &classCost{}
			l.byClass[cls] = cc
		}
		cc.n++
		cc.factPages += st.IO.FactPages
		cc.bitmapPages += st.IO.BitmapPages
		cc.frags += int64(st.Engine.FragmentsProcessed)
		cc.estFactPages += c.FactPages
		cc.estBitmapPages += c.BitmapPages
		cc.estFrag += c.Fragments
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report writes the counter-based per-layer metrics of the interval.
func (l *layerCounters) report(o *outcome) {
	l.mu.Lock()
	defer l.mu.Unlock()
	q := float64(l.queries)
	x := float64(l.executed)
	o.Layers["frag.fragments_per_query"] = ratio(float64(l.fragments), x)
	o.Layers["storage.pages_per_query"] = ratio(float64(l.pages), x)
	o.Layers["storage.rows_read_per_result_row"] = ratio(float64(l.rowsRead), float64(l.resultRows))
	o.Layers["cluster.nodes_per_query"] = ratio(float64(l.nodesUsed), float64(l.scattered))
	o.Layers["cluster.retries"] = float64(l.retries)
	o.Layers["exec.tasks_per_query"] = ratio(float64(l.tasksRun()-l.startTasks), x)
	o.Layers["mdhf.execute.self_us"] = ratio(float64(l.selfTime.Nanoseconds())/1e3, x)
	var fp, efp, bp, ebp, fr, efr float64
	for cls, cc := range l.byClass {
		name := "cost." + cls.String()
		o.Layers[name+".fact_io_ratio"] = ratio(float64(cc.factPages), float64(cc.estFactPages))
		o.Layers[name+".bitmap_io_ratio"] = ratio(float64(cc.bitmapPages), float64(cc.estBitmapPages))
		o.Layers[name+".fragments_ratio"] = ratio(float64(cc.frags), float64(cc.estFrag))
		fp += float64(cc.factPages)
		efp += float64(cc.estFactPages)
		bp += float64(cc.bitmapPages)
		ebp += float64(cc.estBitmapPages)
		fr += float64(cc.frags)
		efr += float64(cc.estFrag)
	}
	o.Layers["cost.fact_io_ratio"] = ratio(fp, efp)
	o.Layers["cost.bitmap_io_ratio"] = ratio(bp, ebp)
	o.Layers["cost.fragments_ratio"] = ratio(fr, efr)
	if l.w == nil {
		// A cluster has no warehouse-level caches, batcher or disk set.
		for _, name := range []string{
			"mdhf.rescache.hit_ratio", "mdhf.rescache.invalidations", "mdhf.shared.batched_ratio",
			"mdhf.shared.phys_saved_ratio", "storage.pool.hit_ratio", "storage.pool.evictions_per_query",
			"storage.retries", "storage.disk.ios_per_query", "storage.disk.imbalance", "storage.disk.busy_ratio",
		} {
			o.Layers[name] = 0
		}
		return
	}
	st := l.w.ServingStats()
	wall := time.Since(l.startTime)
	c0, c1 := l.start.Cache, st.Cache
	o.Layers["mdhf.rescache.hit_ratio"] = ratio(float64(c1.Hits-c0.Hits), float64(c1.Hits-c0.Hits+c1.Misses-c0.Misses))
	o.Layers["mdhf.rescache.invalidations"] = float64(c1.Invalidations - c0.Invalidations)
	s0, s1 := l.start.Shared, st.Shared
	o.Layers["mdhf.shared.batched_ratio"] = ratio(float64(s1.BatchedQueries-s0.BatchedQueries), x)
	o.Layers["mdhf.shared.phys_saved_ratio"] = ratio(float64(s1.PhysReadsSaved-s0.PhysReadsSaved), float64(s1.PhysReadsSaved-s0.PhysReadsSaved)+float64(l.pages))
	p0, p1 := c0.Pool, c1.Pool
	o.Layers["storage.pool.hit_ratio"] = ratio(float64(p1.Hits-p0.Hits), float64(p1.Hits-p0.Hits+p1.Misses-p0.Misses))
	o.Layers["storage.pool.evictions_per_query"] = ratio(float64(p1.Evictions-p0.Evictions), q)
	o.Layers["storage.retries"] = float64(st.Faults.Retries - l.start.Faults.Retries)
	// Per-disk deltas; a compaction installs a fresh disk set, so a disk
	// whose counter went down restarted from zero.
	ds := l.w.DiskStats()
	var ios []float64
	var total, peak float64
	for k, d := range ds {
		n := d.IOs
		if k < len(l.startDisks) && l.startDisks[k].IOs <= n && st.Epoch == l.start.Epoch {
			n -= l.startDisks[k].IOs
		}
		ios = append(ios, float64(n))
		total += float64(n)
		peak = max(peak, float64(n))
	}
	o.Layers["storage.disk.ios_per_query"] = ratio(total, x)
	o.Layers["storage.disk.imbalance"] = 0
	o.Layers["storage.disk.busy_ratio"] = 0
	if n := float64(len(ios)); n > 0 {
		o.Layers["storage.disk.imbalance"] = ratio(peak, total/n)
		o.Layers["storage.disk.busy_ratio"] = ratio(total*l.e.ioDelay().Seconds(), n*wall.Seconds())
	}
}

// ioDelay is the simulated per-access delay of the workload's disks.
func (e *env) ioDelay() time.Duration {
	if e.name == "dashboard_disk" {
		return diskDelay
	}
	return 0
}

// meanSelfUs is the mean self time, in µs, of the spans named name.
func meanSelfUs(sums map[string]spanSummary, name string) float64 {
	s := sums[name]
	if s.Count == 0 {
		return 0
	}
	return float64(s.Self.Microseconds()) / float64(s.Count)
}

// spanCost measures what recording one span costs on this machine.
func spanCost() time.Duration {
	t := newTracer()
	const n = 100000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.begin("cost", int64(i), 0).end()
	}
	return time.Since(t0) / n
}

// estimatedOverhead is the share of the operations' time spent
// recording spansPerOp spans each, for loads that cannot be replayed
// untraced on the same state (open loops and appends).
func estimatedOverhead(spansPerOp int, meanOp time.Duration) float64 {
	return ratio(float64(spanCost())*float64(spansPerOp), float64(meanOp))
}
