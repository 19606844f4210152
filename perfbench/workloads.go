package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	mdhf "repro"
	"repro/internal/exec"
)

// Common inputs of every workload.
const (
	scale         = 60 // APB1Scaled(60): 172,800 fact rows
	fragmentation = "time::month, product::group"
	setupReps     = 11
	querySeqLen   = 4096 // closed-loop query sequence, cycled
	warmup        = time.Second
	disks         = 4
	latencyLimit  = time.Second // open-loop tail-latency limit
)

// dashboard_disk parameters.
const (
	diskDelay     = 200 * time.Microsecond
	dashWorkers   = 8
	dashPool      = 4 << 20
	resultEntries = 256
	sharedWindow  = time.Millisecond
	nominalRate   = 80.0
	// dashWarmup runs the nominal rate before timing, filling the pool
	// and the result cache.
	dashWarmup = 3 * time.Second
)

// ladder is the fixed open-loop rate ladder of dashboard_disk, in q/s;
// the first rung is the nominal one.
var ladder = []float64{nominalRate, 240}

// rungLength is how long a rung above the nominal one runs at rate:
// long enough that minBeyond of its arrivals lie beyond its p99. The
// nominal rung gets the rest of the measured seconds.
func rungLength(rate float64) time.Duration {
	n := math.Ceil(minBeyond / (1 - 0.99))
	return time.Duration(math.Ceil(n/rate*1e3)) * time.Millisecond
}

// clusterInstances is how many freshly opened clusters the measured
// window of an untraced cluster_http run is split over.
const clusterInstances = 4

// ingest_mixed parameters.
const (
	appendBatch = 400
	// The measured phase is a fixed amount of work sized from the run's
	// seconds: batchesPerSecond append batches per second of it, with
	// queriesPerBatch queries of the client to each batch. At 20 s that is
	// 1,000 batches (400,000 rows) and 50,000 queries, about 20 s of work
	// on a 2-vCPU Xeon VM.
	batchesPerSecond = 50
	queriesPerBatch  = 50
	// ingestLimit caps the measured phase at this many times the run's
	// seconds, so a much slower program still ends in time.
	ingestLimit  = 4
	compactEvery = 100000
	ingestPool   = 64 << 20
)

// env is what one run works with.
type env struct {
	ctx     context.Context
	name    string
	seed    int64
	seconds time.Duration
	dir     string // scratch directory inside the checkout
	star    *mdhf.Star
	table   *mdhf.FactTable
	tr      *tracer // nil in untraced runs
}

// outcome is what a workload reports.
type outcome struct {
	Attempted int64
	Failed    int64
	Wrong     int64
	FirstErr  string
	Metrics   map[string]float64 // gated end-to-end metrics
	Extra     map[string]float64 // workload-specific end-to-end figures
	Layers    map[string]float64 // per-layer metrics (traced run)
	Params    map[string]any
	Samples   map[string]spread
	Latency   map[string]latencySummary
}

func newOutcome() *outcome {
	return &outcome{
		Metrics: map[string]float64{}, Extra: map[string]float64{}, Layers: map[string]float64{},
		Params: map[string]any{}, Samples: map[string]spread{}, Latency: map[string]latencySummary{},
	}
}

func (o *outcome) addLoop(r loopResult) {
	o.Attempted += r.Attempted
	o.Failed += r.Failed
	o.Wrong += r.Wrong
	if r.FirstErr != nil && o.FirstErr == "" {
		o.FirstErr = r.FirstErr.Error()
	}
}

// querier is a serving handle queries run against.
type querier interface {
	exec(ctx context.Context, q mdhf.Query) (mdhf.Result, mdhf.Stats, error)
	close() error
}

type warehouseQuerier struct{ w *mdhf.Warehouse }

func (h warehouseQuerier) exec(ctx context.Context, q mdhf.Query) (mdhf.Result, mdhf.Stats, error) {
	return h.w.Query(q).Execute(ctx)
}
func (h warehouseQuerier) close() error { return h.w.Close() }

// setupQueryText is the first query of every setup: a fixed one confined
// to a single fragment, so set-up time does not depend on which query
// the seed happens to draw first.
const setupQueryText = "time::month=0, product::group=0"

// measureSetup builds the serving handle setupReps times, each from
// scratch in its own directory, timing open until the first query is
// answered and checking that answer against the oracle. It keeps the
// last handle and returns the timings.
func measureSetup(e *env, open func(dir string) (querier, error)) (querier, []float64, error) {
	first, err := mdhf.ParseQuery(e.star, setupQueryText)
	if err != nil {
		return nil, nil, err
	}
	want, err := mdhf.ScanGroupedAggregate(e.table, first)
	if err != nil {
		return nil, nil, err
	}
	var times []float64
	var h querier
	for i := 0; i < setupReps; i++ {
		if h != nil {
			if err := h.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC() // leave no earlier garbage for this set-up to collect
		dir := filepath.Join(e.dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		h, err = open(dir)
		if err != nil {
			return nil, nil, err
		}
		got, _, err := h.exec(e.ctx, first)
		times = append(times, time.Since(t0).Seconds())
		if err == nil && !sameResult(got, &want) {
			err = mismatch("first query")
		}
		if err != nil {
			h.close()
			return nil, nil, fmt.Errorf("first query: %w", err)
		}
	}
	return h, times, nil
}

// reportSetup records setup_s as the median of the setup timings.
func (o *outcome) reportSetup(times []float64) {
	s := newSpread(times)
	o.Samples["setup_s"] = s
	o.Metrics["setup_s"] = s.Median
}

// reportQueries records throughput and latency of a query load phase.
func (o *outcome) reportQueries(r loopResult) {
	ok := r.okLatencies()
	sum := summarize(ok)
	o.Latency["query"] = sum
	o.Metrics["throughput_qps"] = float64(len(ok)) / r.Wall.Seconds()
	o.Metrics["query_p50_ms"] = sum.P50Ms
	o.Extra["query_p99_ms"] = sum.TailMs
	o.Samples["throughput_qps_per_second"] = newSpread(r.perSecond())
}

// Queries in the scan probe: few where each reads from delayed disks
// (≈0.36 s apiece), every store where each takes a few milliseconds.
const (
	diskScanProbe = 5
	cpuScanProbe  = 24
)

// newScanProbe draws the scan probe and returns a function that runs
// it, one query at a time, on a handle before its load starts: the
// response time in isolation of a query that reads every fragment, the
// case declustering over disks is meant to cut, on a cold buffer pool
// and an empty result cache. Each result is checked against the oracle;
// solo_scan_ms is the median latency of every probe run so far. A traced
// run probes untraced.
func newScanProbe(e *env, o *outcome, n int) (func(h querier), error) {
	o.Params["scan_probe_queries"] = n
	qs, err := genScanProbe(e.star, e.seed+3, n)
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(e.star, e.table, qs)
	if err != nil {
		return nil, err
	}
	want := orc.expected(e.star, qs)
	var all loopResult
	return func(h querier) {
		tr := e.tr
		e.tr = nil
		runtime.GC() // start every probe with the same heap state
		r := fixedLoop(int64(len(qs)), math.MaxInt64, queryOp(e, h, qs, want, nil))
		e.tr = tr
		o.addLoop(r)
		all.merge(r)
		s := summarize(all.okLatencies())
		o.Latency["solo_scan"] = s
		o.Extra["solo_scan_ms"] = s.P50Ms
	}, nil
}

// queryOp returns an operation running qs[seq % len] and checking it
// against want.
func queryOp(e *env, h querier, qs []mdhf.Query, want []*mdhf.Result, lay *layerCounters) op {
	return func(seq int64, _ int) error {
		i := int(seq % int64(len(qs)))
		sp := e.tr.begin("client.query", seq, 0)
		ex := e.tr.begin("mdhf.execute", seq, sp.id)
		t0 := time.Now()
		got, st, err := h.exec(e.ctx, qs[i])
		d := time.Since(t0)
		ex.end()
		sp.end()
		if err != nil {
			return err
		}
		lay.add(qs[i], st, d, got.Count)
		if !sameResult(got, want[i]) {
			return mismatch(fmt.Sprintf("query %d (%s)", i, mdhf.FormatQuery(e.star, qs[i])))
		}
		return nil
	}
}

// overheadPairs is how many untraced/traced round pairs a traced closed
// loop runs to measure the tracing overhead.
const overheadPairs = 4

// runClosedQueries warms the handle up, then runs the timed closed loop
// and reports it. An untraced run splits the measured window into
// segments of equal length; before each segment after the first, reopen
// replaces the handle's serving state with a fresh one over the same
// rows, which is then warmed up untimed. A traced run first alternates
// short untraced and traced rounds over the same inputs to measure the
// tracing overhead, then runs the traced loop the per-layer counters
// come from.
func runClosedQueries(e *env, o *outcome, h querier, clients int, qs []mdhf.Query, want []*mdhf.Result, lay *layerCounters, segments int, reopen func() error) error {
	tr := e.tr
	e.tr = nil
	o.addLoop(closedLoop(clients, warmup, queryOp(e, h, qs, want, nil)))
	if tr != nil {
		round := max(e.seconds/(2*overheadPairs), 250*time.Millisecond)
		var fracs []float64
		for i := 0; i < overheadPairs; i++ {
			var r [2]loopResult // untraced, traced
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // alternate which side runs first
				e.tr = nil
				var l *layerCounters
				if side == 1 {
					e.tr, l = tr, lay
				}
				r[side] = closedLoop(clients, round, queryOp(e, h, qs, want, l))
				o.addLoop(r[side])
			}
			fracs = append(fracs, overheadFrac(r[0], r[1]))
		}
		slices.Sort(fracs)
		o.Layers["trace.overhead_frac"] = median(fracs)
		e.tr = tr
		lay.reset()
		traced := closedLoop(clients, e.seconds, queryOp(e, h, qs, want, lay))
		o.addLoop(traced)
		o.reportQueries(traced)
		return nil
	}
	var r loopResult
	peak := 0.0
	for k := 0; k < segments; k++ {
		if k > 0 {
			if err := reopen(); err != nil {
				return err
			}
			o.addLoop(closedLoop(clients, warmup/2, queryOp(e, h, qs, want, nil)))
		}
		hs := startHeapSampler(10 * time.Millisecond)
		seg := closedLoop(clients, e.seconds/time.Duration(segments), queryOp(e, h, qs, want, nil))
		peak = max(peak, hs.Stop())
		r.then(seg)
	}
	o.Metrics["heap_peak_mb"] = peak
	o.addLoop(r)
	o.reportQueries(r)
	return nil
}

// overheadFrac is the traced round's throughput loss against the
// untraced round of the same inputs.
func overheadFrac(plain, traced loopResult) float64 {
	p := float64(plain.Attempted) / plain.Wall.Seconds()
	t := float64(traced.Attempted) / traced.Wall.Seconds()
	return (p - t) / p
}

func baseConfig(e *env) mdhf.Config {
	return mdhf.Config{Star: e.star, Fragmentation: fragmentation, Table: e.table, Seed: e.seed}
}

// uniformQueries is the olap_cpu / cluster_http mix with its oracle.
func uniformQueries(e *env) ([]mdhf.Query, []*mdhf.Result, error) {
	qs, err := genQueries(e.star, e.seed, querySeqLen, uniformMembers)
	if err != nil {
		return nil, nil, err
	}
	o, err := newOracle(e.star, e.table, qs)
	if err != nil {
		return nil, nil, err
	}
	return qs, o.expected(e.star, qs), nil
}

// runOLAPCPU is the CPU regime: two closed-loop clients over the
// uniform mix on the WAH-compressed, declustered on-disk backend
// without injected delay or any cache.
func runOLAPCPU(e *env) (*outcome, error) {
	o := newOutcome()
	o.Params["clients"] = 2
	o.Params["workers"] = 2
	o.Params["disks"] = disks
	o.Params["io_delay_us"] = 0
	o.Params["compressed"] = true
	qs, want, err := uniformQueries(e)
	if err != nil {
		return nil, err
	}
	h, times, err := measureSetup(e, func(dir string) (querier, error) {
		w, err := mdhf.Open(e.ctx, baseConfig(e), mdhf.WithOnDisk(dir), mdhf.WithDisks(disks, mdhf.RoundRobin),
			mdhf.WithCompression(), mdhf.WithIODelay(0), mdhf.WithWorkers(2))
		return warehouseQuerier{w}, err
	})
	if err != nil {
		return nil, err
	}
	defer h.close()
	o.reportSetup(times)
	probe, err := newScanProbe(e, o, cpuScanProbe)
	if err != nil {
		return nil, err
	}
	probe(h)
	w := h.(warehouseQuerier).w
	lay := newLayerCounters(e, w, warehouseTasks(w))
	if err := runClosedQueries(e, o, h, 2, qs, want, lay, 1, nil); err != nil {
		return nil, err
	}
	o.Extra["disk_bytes_per_row"] = float64(dirBytes(filepath.Join(e.dir, fmt.Sprintf("setup-%d", setupReps-1)))) / float64(e.table.N())
	if e.tr != nil {
		lay.report(o)
		if err := measureLayers(e, o, qs, w, lay); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// runDashboardDisk is the disk-bound regime: an open loop of Poisson
// arrivals over a Zipf-skewed mix at each rung of a fixed rate ladder,
// on the uncompressed declustered backend with Table-4-scaled delays, a
// buffer pool smaller than the working set, a result cache and shared
// scans.
func runDashboardDisk(e *env) (*outcome, error) {
	o := newOutcome()
	o.Params["workers"] = dashWorkers
	o.Params["disks"] = disks
	o.Params["io_delay_us"] = diskDelay.Microseconds()
	o.Params["pool_bytes"] = dashPool
	o.Params["result_cache_entries"] = resultEntries
	o.Params["shared_window_us"] = sharedWindow.Microseconds()
	o.Params["rate_ladder_qps"] = ladder
	o.Params["latency_limit_ms"] = latencyLimit.Milliseconds()
	o.Params["zipf_s"] = zipfS

	rng := rand.New(rand.NewSource(e.seed))
	nominalDur := e.seconds
	for _, rate := range ladder[1:] {
		nominalDur -= rungLength(rate)
	}
	nominalDur = max(nominalDur, time.Second)
	warm := poisson(rng, nominalRate, dashWarmup)
	var dues [][]time.Duration
	var rungDur []time.Duration
	total := len(warm)
	for i, rate := range ladder {
		d := nominalDur
		if i > 0 {
			d = rungLength(rate)
		}
		rungDur = append(rungDur, d)
		dues = append(dues, poisson(rng, rate, d))
		total += len(dues[i])
	}
	qs, err := genQueries(e.star, e.seed+1, total, zipfMembers(e.star, e.seed))
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(e.star, e.table, qs)
	if err != nil {
		return nil, err
	}
	want := orc.expected(e.star, qs)

	h, times, err := measureSetup(e, func(dir string) (querier, error) {
		w, err := mdhf.Open(e.ctx, baseConfig(e), mdhf.WithOnDisk(dir), mdhf.WithDisks(disks, mdhf.RoundRobin),
			mdhf.WithIODelay(diskDelay), mdhf.WithWorkers(dashWorkers), mdhf.WithBufferPool(dashPool),
			mdhf.WithResultCache(resultEntries), mdhf.WithSharedScans(sharedWindow))
		return warehouseQuerier{w}, err
	})
	if err != nil {
		return nil, err
	}
	defer h.close()
	o.reportSetup(times)
	probe, err := newScanProbe(e, o, diskScanProbe)
	if err != nil {
		return nil, err
	}
	probe(h)
	w := h.(warehouseQuerier).w
	lay := newLayerCounters(e, w, warehouseTasks(w))

	// op i of a rung runs qs[base+i].
	rungOp := func(base int, lay *layerCounters) op {
		return func(i int64, _ int) error {
			return queryOp(e, h, qs, want, lay)(int64(base)+i, 0)
		}
	}
	tr := e.tr
	e.tr = nil
	o.addLoop(openLoop(wallClock{}, warm, rungOp(0, nil)).loopResult)
	e.tr = tr
	lay.reset()
	var hs *heapSampler
	if tr == nil {
		hs = startHeapSampler(10 * time.Millisecond)
	}
	base := len(warm)
	maxRate := 0.0
	var lags []time.Duration
	for i, rate := range ladder {
		r := openLoop(wallClock{}, dues[i], rungOp(base, lay))
		base += len(dues[i])
		o.addLoop(r.loopResult)
		lags = append(lags, r.Lag...)
		sum := summarize(r.okLatencies())
		o.Latency[fmt.Sprintf("rung_%g", rate)] = sum
		if i == 0 {
			o.reportQueries(r.loopResult)
			if tr != nil {
				lay.report(o)
			}
		}
		// A rung meets the limit when its p99 does and the backlog left
		// when its arrivals stopped drains within twice the limit; a
		// longer drain means the backlog was growing. (One 1STORE cache
		// miss alone keeps the disks busy for ~0.5 s.)
		drain := r.Wall - rungDur[i]
		o.Extra[fmt.Sprintf("rung_%g.drain_ms", rate)] = float64(drain) / float64(time.Millisecond)
		if r.Failed > 0 || sum.P99Ms > float64(latencyLimit.Milliseconds()) || drain > 2*latencyLimit {
			break
		}
		// The rate this rung sustained: replies within its length.
		maxRate = float64(r.doneBy(rungDur[i])) / rungDur[i].Seconds()
	}
	if hs != nil {
		o.Metrics["heap_peak_mb"] = hs.Stop()
	}
	// throughput_qps is the nominal rung's, from reportQueries: its replies
	// per second from its start to its last reply. The highest rung
	// passed is not gated: a rung's p99 is set by the few uncached 1STORE
	// scans that happen to overlap, so it flips between runs.
	o.Extra["max_rate_qps"] = maxRate
	lag := summarize(lags)
	o.Latency["gen.lag"] = lag
	if tr != nil {
		o.Layers["gen.lag_p99_ms"] = lag.TailMs
		q := o.Latency["query"]
		o.Layers["trace.overhead_frac"] = estimatedOverhead(2, time.Duration(q.MeanMs*float64(time.Millisecond)))
		if err := measureLayers(e, o, qs, w, lay); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// runIngestMixed runs one appender of a fixed volume, paced over the
// measured window, beside one closed-loop query client of the dashboard mix, with auto
// compaction, the journal, a large buffer pool and the result cache.
func runIngestMixed(e *env) (*outcome, error) {
	o := newOutcome()
	o.Params["disks"] = disks
	o.Params["workers"] = 2
	o.Params["append_batch_rows"] = appendBatch
	nBatches := batchesPerSecond * int(e.seconds/time.Second)
	o.Params["append_rows"] = appendBatch * nBatches
	o.Params["queries"] = nBatches * queriesPerBatch
	o.Params["auto_compaction_rows"] = compactEvery
	o.Params["pool_bytes"] = ingestPool
	o.Params["result_cache_entries"] = resultEntries
	o.Params["flush_policy"] = "journal written per Append, no fsync"
	o.Params["append_pacing"] = "batch k due at k/1000 of the measured window"

	batches := genAppendBatches(e.star, e.seed+2, nBatches, appendBatch)
	qs, err := genQueries(e.star, e.seed+1, querySeqLen, zipfMembers(e.star, e.seed))
	if err != nil {
		return nil, err
	}
	orc, err := newIngestOracle(e.star, e.table, qs, batches)
	if err != nil {
		return nil, err
	}

	h, times, err := measureSetup(e, func(dir string) (querier, error) {
		w, err := mdhf.Open(e.ctx, baseConfig(e), mdhf.WithOnDisk(dir), mdhf.WithDisks(disks, mdhf.RoundRobin),
			mdhf.WithIODelay(0), mdhf.WithWorkers(2), mdhf.WithBufferPool(ingestPool),
			mdhf.WithResultCache(resultEntries), mdhf.WithAutoCompaction(compactEvery))
		return warehouseQuerier{w}, err
	})
	if err != nil {
		return nil, err
	}
	defer h.close()
	o.reportSetup(times)
	probe, err := newScanProbe(e, o, cpuScanProbe)
	if err != nil {
		return nil, err
	}
	probe(h)
	w := h.(warehouseQuerier).w
	root := filepath.Join(e.dir, fmt.Sprintf("setup-%d", setupReps-1))
	lay := newLayerCounters(e, w, warehouseTasks(w))

	// Warm up on queries alone; nothing is appended yet, so every result
	// must equal the base oracle.
	var acked, started atomic.Int64
	qop := func(lay *layerCounters) op {
		return func(seq int64, _ int) error {
			i := int(seq % int64(len(qs)))
			lo := int(acked.Load())
			sp := e.tr.begin("client.query", seq, 0)
			ex := e.tr.begin("mdhf.execute", seq, sp.id)
			t0 := time.Now()
			got, st, err := h.exec(e.ctx, qs[i])
			d := time.Since(t0)
			ex.end()
			sp.end()
			if err != nil {
				return err
			}
			lay.add(qs[i], st, d, got.Count)
			if !orc.matches(i, got, lo, int(started.Load())) {
				return mismatch(fmt.Sprintf("query %d (%s)", i, mdhf.FormatQuery(e.star, qs[i])))
			}
			return nil
		}
	}
	o.addLoop(closedLoop(1, warmup, qop(nil)))
	lay.reset()

	var hs *heapSampler
	if e.tr == nil {
		hs = startHeapSampler(10 * time.Millisecond)
	}
	// The client runs a fixed number of queries, and the appender starts
	// batch k when the client starts query k·queriesPerBatch. So the data
	// each query sees, the interleaving of reads and writes (and with it
	// the result cache's invalidations) and the volume appended in the
	// measured phase do not depend on how fast the program is. Batches
	// left when the phase ends (only if it hit its time limit) are
	// appended after it, untimed, so every run ends with the same data.
	ticks := make(chan struct{}, nBatches) // one send per batch: the client never blocks
	windowDone := make(chan struct{})
	var app loopResult
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k, b := range batches {
			select {
			case <-ticks:
			case <-windowDone:
			}
			started.Add(1)
			sp := e.tr.begin("mdhf.append", int64(-1-k), 0)
			t1 := time.Now()
			err := w.Append(e.ctx, b)
			t2 := time.Now()
			sp.end()
			app.record(t2.Sub(t1), t2.Sub(start), err)
			if err != nil {
				return
			}
			acked.Add(1)
		}
	}()
	measured := qop(lay)
	r := fixedLoop(int64(nBatches*queriesPerBatch), ingestLimit*e.seconds, func(seq int64, c int) error {
		if seq%queriesPerBatch == 0 {
			ticks <- struct{}{}
		}
		return measured(seq, c)
	})
	windowEnd := time.Since(start)
	if hs != nil {
		o.Metrics["heap_peak_mb"] = hs.Stop()
	}
	close(windowDone)
	wg.Wait()
	o.addLoop(r)
	o.addLoop(app)
	o.reportQueries(r)
	if e.tr != nil {
		lay.report(o)
	}
	// The append figures cover the batches acknowledged inside the window,
	// which ran beside the query client.
	in := 0
	for in < len(app.Done) && app.Done[in] <= windowEnd {
		in++
	}
	o.Extra["batches_in_window"] = float64(in)
	if app.Failed == 0 && in > 0 {
		var busy time.Duration
		for _, d := range app.Lat[:in] {
			busy += d
		}
		asum := summarize(app.Lat[:in])
		o.Latency["append"] = asum
		// Rows per second of Append time: the appender's service rate,
		// independent of the pacing.
		o.Extra["append_rows_per_s"] = float64(appendBatch*in) / busy.Seconds()
		o.Extra["append_p50_ms"] = asum.P50Ms
		o.Extra["append_p99_ms"] = asum.TailMs
	}

	// Quiesce: fold what is left, then every distinct query must equal
	// the oracle over the base rows plus every acknowledged row.
	if err := w.Compact(e.ctx); err != nil {
		return nil, fmt.Errorf("final compaction: %w", err)
	}
	st := w.ServingStats()
	o.Extra["compactions"] = float64(st.Compactions)
	if got, wantRows := st.AppendedRows, acked.Load()*appendBatch; got != wantRows {
		o.Wrong++
		o.FirstErr = fmt.Sprintf("warehouse counts %d appended rows, %d were acknowledged", got, wantRows)
	}
	for _, i := range orc.distinct {
		o.Attempted++
		got, _, err := h.exec(e.ctx, qs[i])
		if err != nil {
			o.Failed++
			continue
		}
		if !orc.matches(i, got, int(acked.Load()), int(acked.Load())) {
			o.Wrong++
			if o.FirstErr == "" {
				o.FirstErr = fmt.Sprintf("after quiesce, query %s differs from the oracle", mdhf.FormatQuery(e.star, qs[i]))
			}
		}
	}
	o.Extra["disk_bytes_per_row"] = float64(dirBytes(root)) / float64(int64(e.table.N())+acked.Load()*appendBatch)
	if e.tr != nil {
		q := o.Latency["query"]
		o.Layers["trace.overhead_frac"] = estimatedOverhead(2, time.Duration(q.MeanMs*float64(time.Millisecond)))
		if err := measureLayers(e, o, qs, w, lay); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// genAppendBatches draws the appended rows: every row lands in the
// latest month and is uniform on the other dimensions.
func genAppendBatches(star *mdhf.Star, seed int64, n, size int) [][]mdhf.FactRow {
	rng := rand.New(rand.NewSource(seed))
	timeDim := star.DimIndex("time")
	out := make([][]mdhf.FactRow, n)
	for b := range out {
		rows := make([]mdhf.FactRow, size)
		for i := range rows {
			leaves := make([]int32, len(star.Dims))
			for d, dim := range star.Dims {
				leaves[d] = int32(rng.Intn(dim.LeafCard()))
			}
			leaves[timeDim] = int32(star.Dims[timeDim].LeafCard() - 1)
			units := int64(1 + rng.Intn(100))
			price := int64(1 + rng.Intn(50))
			rows[i] = mdhf.FactRow{Leaves: leaves, UnitsSold: units, DollarSales: units * price, Cost: units * price * 3 / 4}
		}
		out[b] = rows
	}
	return out
}

// ingestOracle knows, for every query of the sequence, its result after
// each prefix of the append batches: the aggregate over the base rows
// plus batches [0, k). Queries no appended row matches keep their base
// result throughout.
type ingestOracle struct {
	key      []int              // sequence index -> distinct query
	base     []mdhf.Result      // per distinct query
	prefix   [][]mdhf.Aggregate // per distinct query; nil when untouched
	distinct []int              // a sequence index of each distinct query
}

func newIngestOracle(star *mdhf.Star, base *mdhf.FactTable, qs []mdhf.Query, batches [][]mdhf.FactRow) (*ingestOracle, error) {
	orc := &ingestOracle{key: make([]int, len(qs))}
	tables := make([]*mdhf.FactTable, len(batches))
	for j, b := range batches {
		tables[j] = batchTable(star, b)
	}
	byText := map[string]int{}
	for i, q := range qs {
		text := mdhf.FormatQuery(star, q)
		k, ok := byText[text]
		if !ok {
			k = len(orc.distinct)
			byText[text] = k
			orc.distinct = append(orc.distinct, i)
		}
		orc.key[i] = k
	}
	orc.base = make([]mdhf.Result, len(orc.distinct))
	orc.prefix = make([][]mdhf.Aggregate, len(orc.distinct))
	// Each task fills only its own entries of orc.base and orc.prefix.
	_, err := exec.Map(context.Background(), 0, len(orc.distinct), func(k int) (struct{}, error) {
		q := qs[orc.distinct[k]]
		res, err := mdhf.ScanGroupedAggregate(base, q)
		if err != nil {
			return struct{}{}, err
		}
		if len(res.Groups) != 0 {
			return struct{}{}, fmt.Errorf("ingest oracle: grouped query %s", mdhf.FormatQuery(star, q))
		}
		var p []mdhf.Aggregate
		for j, t := range tables {
			c := mdhf.ScanAggregate(t, q)
			if c.Count == 0 && p == nil {
				continue
			}
			if p == nil {
				p = make([]mdhf.Aggregate, len(tables)+1)
				for m := 0; m <= j; m++ {
					p[m] = res.Aggregate
				}
			}
			p[j+1] = p[j]
			p[j+1].Add(c)
		}
		orc.base[k], orc.prefix[k] = res, p
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	return orc, nil
}

// matches reports whether got is the result after some prefix of k
// batches with lo <= k <= hi: the batches acknowledged before the query
// was issued must be visible, those not yet started by its reply must
// not.
func (orc *ingestOracle) matches(i int, got mdhf.Result, lo, hi int) bool {
	k := orc.key[i]
	p := orc.prefix[k]
	if p == nil {
		return sameResult(got, &orc.base[k])
	}
	if len(got.Groups) != 0 {
		return false
	}
	hi = min(hi, len(p)-1)
	for j := lo; j <= hi; j++ {
		if got.Aggregate == p[j] {
			return true
		}
	}
	return false
}

// batchTable wraps appended rows as a fact table for the scan oracle.
func batchTable(star *mdhf.Star, rows []mdhf.FactRow) *mdhf.FactTable {
	t := &mdhf.FactTable{Star: star, Dims: make([][]int32, len(star.Dims))}
	for _, r := range rows {
		for d, l := range r.Leaves {
			t.Dims[d] = append(t.Dims[d], l)
		}
		t.UnitsSold = append(t.UnitsSold, r.UnitsSold)
		t.DollarSales = append(t.DollarSales, r.DollarSales)
		t.Cost = append(t.Cost, r.Cost)
	}
	return t
}

// clusterQuerier serves queries through a Cluster over HTTP nodes it
// started on loopback.
type clusterQuerier struct {
	c       *mdhf.Cluster
	nodes   []*mdhf.ClusterNode
	servers []*http.Server
	wg      *sync.WaitGroup // the servers' goroutines
}

func (h *clusterQuerier) exec(ctx context.Context, q mdhf.Query) (mdhf.Result, mdhf.Stats, error) {
	return h.c.Query(q).Execute(ctx)
}

func (h *clusterQuerier) close() error {
	var err error
	if h.c != nil {
		err = h.c.Close()
	}
	for _, s := range h.servers {
		err = errors.Join(err, s.Close())
	}
	h.wg.Wait()
	for _, n := range h.nodes {
		err = errors.Join(err, n.Close())
	}
	return err
}

// openHTTPCluster starts one in-memory node per shard behind an HTTP
// server on loopback and opens a Cluster over their addresses.
func openHTTPCluster(e *env, wrap func(k int, h http.Handler) http.Handler) (*clusterQuerier, error) {
	spec, err := mdhf.ParseFragmentation(e.star, fragmentation)
	if err != nil {
		return nil, err
	}
	cl := mdhf.Placement{Disks: disks, Scheme: mdhf.RoundRobin}
	shards := mdhf.PartitionFactTable(spec, cl, e.table)
	h := &clusterQuerier{wg: new(sync.WaitGroup)}
	var addrs []string
	for k, shard := range shards {
		n, err := mdhf.NewClusterNode(mdhf.ClusterNodeConfig{
			Spec: spec, Indexes: mdhf.APB1Indexes(e.star), Index: k, Cluster: cl, Workers: 1,
		}, shard)
		if err != nil {
			h.close()
			return nil, err
		}
		h.nodes = append(h.nodes, n)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			h.close()
			return nil, err
		}
		var handler http.Handler = mdhf.NewNodeHandler(n)
		if wrap != nil {
			handler = wrap(k, handler)
		}
		srv := &http.Server{Handler: handler}
		h.servers = append(h.servers, srv)
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			srv.Serve(ln)
		}()
		addrs = append(addrs, "http://"+ln.Addr().String())
	}
	c, err := mdhf.OpenCluster(e.ctx, baseConfig(e), mdhf.WithNodes(disks, mdhf.RoundRobin), mdhf.WithNodeAddrs(addrs...))
	if err != nil {
		h.close()
		return nil, err
	}
	h.c = c
	return h, nil
}

// runClusterHTTP runs the olap_cpu mix through the scatter/gather
// coordinator over four in-process HTTP nodes.
func runClusterHTTP(e *env) (*outcome, error) {
	o := newOutcome()
	o.Params["clients"] = 2
	o.Params["nodes"] = disks
	o.Params["node_workers"] = 1
	o.Params["transport"] = "gob over HTTP on loopback"
	qs, want, err := uniformQueries(e)
	if err != nil {
		return nil, err
	}
	// In a traced run each node's handler records a span under the solo
	// query the layer phase has in flight.
	var soloParent atomic.Int64
	var wrap func(int, http.Handler) http.Handler
	if e.tr != nil {
		wrap = func(_ int, next http.Handler) http.Handler {
			return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				sp := e.tr.begin("cluster.node.handler", 0, soloParent.Load())
				next.ServeHTTP(rw, r)
				sp.end()
			})
		}
	}
	q, times, err := measureSetup(e, func(string) (querier, error) {
		return openHTTPCluster(e, wrap)
	})
	if err != nil {
		return nil, err
	}
	defer q.close()
	o.reportSetup(times)
	probe, err := newScanProbe(e, o, cpuScanProbe)
	if err != nil {
		return nil, err
	}
	probe(q)
	h := q.(*clusterQuerier)
	lay := newLayerCounters(e, nil, func() int64 {
		st, _ := h.c.ServingStats(e.ctx) // a node that cannot answer counts zero tasks
		var n int64
		for _, ns := range st.Nodes {
			n += ns.Sched.TasksRun
		}
		return n
	})
	// Throughput of clusters opened over the same rows differs by as much
	// as 30 %, and stays with the cluster while it runs, so an untraced
	// run spreads its window, and the scan probe, over several.
	reopen := func() error {
		if err := h.close(); err != nil {
			return err
		}
		fresh, err := openHTTPCluster(e, wrap)
		if err != nil {
			return err
		}
		*h = *fresh
		probe(h)
		return nil
	}
	if err := runClosedQueries(e, o, h, 2, qs, want, lay, clusterInstances, reopen); err != nil {
		return nil, err
	}
	if e.tr != nil {
		lay.report(o)
		// Transport self time: a solo query's Execute span minus the node
		// handler spans under it.
		for i, q := range qs[:layerSample] {
			sp := e.tr.begin("cluster.transport", int64(i), 0)
			soloParent.Store(sp.id)
			_, _, err := h.exec(e.ctx, q)
			soloParent.Store(0)
			sp.end()
			if err != nil {
				return nil, err
			}
		}
		if err := measureLayers(e, o, qs, nil, lay); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// workloads maps each workload name to its runner, in BENCHMARK.json
// order.
var workloads = []struct {
	name string
	run  func(*env) (*outcome, error)
}{
	{"olap_cpu", runOLAPCPU},
	{"dashboard_disk", runDashboardDisk},
	{"ingest_mixed", runIngestMixed},
	{"cluster_http", runClusterHTTP},
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
