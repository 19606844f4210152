package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	mdhf "repro"
)

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 0.99}, // p99.9 would qualify, but the metric is capped at p99
		{1000, 0.99},
		{999, 0.95},
		{200, 0.95},
		{199, 0.9},
		{100, 0.9},
		{20, 0.5},
		{19, 0},
		{0, 0},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n, 0.99); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := tailQuantile(10000, 1); got != 0.999 {
		t.Errorf("uncapped tailQuantile(10000) = %v, want 0.999", got)
	}
}

func TestSummarizeReportsTailWithTenBeyond(t *testing.T) {
	for _, n := range []int{20, 150, 999, 1000, 4321} {
		lat := make([]time.Duration, n)
		for i := range lat {
			lat[i] = time.Duration(n-i) * time.Millisecond // descending: summarize must sort
		}
		s := summarize(lat)
		if s.Beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond %s, want at least %d", n, s.Beyond, s.Percent, minBeyond)
		}
		beyond := 0
		for _, d := range lat {
			if float64(d)/float64(time.Millisecond) > s.TailMs {
				beyond++
			}
		}
		if beyond != s.Beyond {
			t.Errorf("n=%d: counted %d samples above %.1f ms, summary says %d", n, beyond, s.TailMs, s.Beyond)
		}
		if s.P50Ms != float64((n+1)/2) {
			t.Errorf("n=%d: median %.1f ms, want %d", n, s.P50Ms, (n+1)/2)
		}
	}
}

// fakeClock advances only when the generator sleeps, and every sleep
// overshoots by late, like a stalled generator.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	late time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
	c.now = c.now.Add(c.late)
}

func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms}
	clk := &fakeClock{now: time.Unix(0, 0), late: 15 * ms}
	// Every operation replies only after the last one was sent, so all
	// replies read the same clock.
	sent := make(chan struct{})
	r := openLoop(clk, due, func(i int64, _ int) error {
		if i == int64(len(due)-1) {
			close(sent)
		}
		<-sent
		return nil
	})
	// Sends happen at 15, 30 and 45 ms: each sleep overshoots by 15 ms
	// and the lateness accumulates.
	wantLag := []time.Duration{15 * ms, 20 * ms, 25 * ms}
	if !reflect.DeepEqual(r.Lag, wantLag) {
		t.Errorf("lag = %v, want %v", r.Lag, wantLag)
	}
	// Replies all at 45 ms; latency counts from the due time, so the
	// generator's lateness is charged to the operations it delayed.
	wantLat := []time.Duration{45 * ms, 35 * ms, 25 * ms}
	if !reflect.DeepEqual(r.Lat, wantLat) {
		t.Errorf("latency = %v, want %v", r.Lat, wantLat)
	}
	if r.Attempted != 3 || r.Failed != 0 || r.Wall != 45*ms {
		t.Errorf("attempted %d failed %d wall %v", r.Attempted, r.Failed, r.Wall)
	}
	if n := r.doneBy(44 * ms); n != 0 {
		t.Errorf("%d operations done by 44ms, want 0", n)
	}
}

func TestOpenLoopOnTimeGeneratorHasNoLag(t *testing.T) {
	due := []time.Duration{time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}
	clk := &fakeClock{now: time.Unix(0, 0)}
	r := openLoop(clk, due, func(int64, int) error { return nil })
	for i, l := range r.Lag {
		if l != 0 {
			t.Errorf("op %d: lag %v on a punctual generator", i, l)
		}
	}
}

func TestFixedLoopRunsNOperationsOrStopsAtItsLimit(t *testing.T) {
	var seqs []int64
	r := fixedLoop(5, time.Hour, func(seq int64, _ int) error {
		seqs = append(seqs, seq)
		return nil
	})
	if !reflect.DeepEqual(seqs, []int64{0, 1, 2, 3, 4}) || r.Attempted != 5 {
		t.Errorf("ran %v (%d attempted), want operations 0-4", seqs, r.Attempted)
	}
	r = fixedLoop(1<<40, 20*time.Millisecond, func(int64, int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if r.Attempted == 0 || r.Wall > time.Second {
		t.Errorf("time limit: %d operations in %v", r.Attempted, r.Wall)
	}
}

func TestSeededInputsAreDeterministic(t *testing.T) {
	star := mdhf.APB1Scaled(scale)
	for _, pick := range []memberPicker{uniformMembers, zipfMembers(star, 7)} {
		a, err := genQueries(star, 42, 300, pick)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genQueries(star, 42, 300, pick)
		c, _ := genQueries(star, 43, 300, pick)
		if !reflect.DeepEqual(a, b) {
			t.Error("same seed gave different queries")
		}
		if reflect.DeepEqual(a, c) {
			t.Error("different seeds gave the same queries")
		}
	}
	if !reflect.DeepEqual(genAppendBatches(star, 5, 3, 10), genAppendBatches(star, 5, 3, 10)) {
		t.Error("same seed gave different append batches")
	}
	p1 := poisson(rand.New(rand.NewSource(9)), 100, time.Second)
	p2 := poisson(rand.New(rand.NewSource(9)), 100, time.Second)
	if !reflect.DeepEqual(p1, p2) || len(p1) == 0 {
		t.Error("same seed gave different arrival schedules")
	}
}

func TestScanProbeHoldsDistinctStores(t *testing.T) {
	star := mdhf.APB1Scaled(scale)
	for _, n := range []int{diskScanProbe, cpuScanProbe} {
		a, err := genScanProbe(star, 42, n)
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := genScanProbe(star, 42, n); !reflect.DeepEqual(a, b) {
			t.Errorf("n=%d: same seed gave different probes", n)
		}
		seen := map[string]bool{}
		for _, q := range a {
			text := mdhf.FormatQuery(star, q)
			if seen[text] || !strings.HasPrefix(text, "customer::store=") {
				t.Errorf("n=%d: probe query %s is a repeat or not a 1STORE query", n, text)
			}
			seen[text] = true
		}
		if len(seen) != n {
			t.Errorf("n=%d: %d distinct probe queries", n, len(seen))
		}
	}
}

func TestZipfMembersFavourLatestMonth(t *testing.T) {
	star := mdhf.APB1Scaled(scale)
	pick := zipfMembers(star, 1)
	rng := rand.New(rand.NewSource(1))
	td := star.DimIndex("time")
	month := star.Dims[td].LevelIndex("month")
	card := star.Dims[td].Levels[month].Card
	counts := make([]int, card)
	for i := 0; i < 5000; i++ {
		counts[pick(rng, td, month, card)]++
	}
	for m := 0; m < card-1; m++ {
		if counts[m] > counts[card-1] {
			t.Fatalf("month %d drawn %d times, more than the latest month's %d", m, counts[m], counts[card-1])
		}
	}
}

func TestMetricNamesAreWellFormedAndMatchBenchmarkJSON(t *testing.T) {
	names := map[string]bool{}
	check := func(name string) {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, metricName)
		}
		if names[name] {
			t.Errorf("metric name %q used twice", name)
		}
		names[name] = true
	}
	for _, m := range endToEnd {
		check(m.name)
	}
	for _, m := range perLayer {
		check(m.name)
	}
	for name := range extraUnits {
		check(name)
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) || len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d workloads/end-to-end/per-layer, the harness %d/%d/%d",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if bj.EndToEnd[i].Name != m.name || bj.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json has %v, harness %s %s", i, bj.EndToEnd[i], m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if bj.PerLayer[i].Name != m.name || bj.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %v, harness %s %s", i, bj.PerLayer[i], m.name, m.unit)
		}
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, harness %s", i, bj.Workloads[i].Name, w.name)
		}
	}
}

// wrongQuerier serves every query with a result one row off.
type wrongQuerier struct{ star *mdhf.Star }

func (q wrongQuerier) exec(context.Context, mdhf.Query) (mdhf.Result, mdhf.Stats, error) {
	return mdhf.Result{Aggregate: mdhf.Aggregate{Count: 1}}, mdhf.Stats{}, nil
}
func (wrongQuerier) close() error { return nil }

func TestInjectedOracleMismatchFailsTheRun(t *testing.T) {
	star := mdhf.APB1Scaled(scale)
	e := &env{ctx: context.Background(), star: star}
	qs, err := genQueries(star, 1, 4, uniformMembers)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*mdhf.Result, len(qs))
	for i := range want {
		want[i] = &mdhf.Result{} // the oracle says: no matching rows
	}
	r := closedLoop(1, 20*time.Millisecond, queryOp(e, wrongQuerier{star}, qs, want, nil))
	if r.Wrong == 0 || !errors.Is(r.FirstErr, errMismatch) {
		t.Fatalf("a wrong result was not caught: wrong=%d err=%v", r.Wrong, r.FirstErr)
	}
	o := newOutcome()
	o.addLoop(r)
	for _, m := range endToEnd {
		o.Metrics[m.name] = 1
	}
	res, err := buildResult(o, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("a run with an oracle mismatch reports correct")
	}
}

func TestIngestOracleAcceptsOnlyVisiblePrefixes(t *testing.T) {
	star := mdhf.APB1Scaled(scale)
	base := batchTable(star, genAppendBatches(star, 1, 1, 50)[0])
	batches := genAppendBatches(star, 2, 3, 20)
	q, err := mdhf.ParseQuery(star, "time::month=11")
	if err != nil {
		t.Fatal(err)
	}
	orc, err := newIngestOracle(star, base, []mdhf.Query{q}, batches)
	if err != nil {
		t.Fatal(err)
	}
	after := func(k int) mdhf.Result {
		var rows []mdhf.FactRow
		for _, b := range batches[:k] {
			rows = append(rows, b...)
		}
		r, err := mdhf.ScanGroupedAggregate(mergedTable(base, [][]mdhf.FactRow{rows}), q)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if !orc.matches(0, after(2), 1, 2) {
		t.Error("result after 2 batches rejected for window [1,2]")
	}
	if orc.matches(0, after(0), 1, 3) {
		t.Error("result missing an acknowledged batch accepted")
	}
	if orc.matches(0, after(3), 0, 2) {
		t.Error("result with a batch not yet started accepted")
	}
	wrong := after(1)
	wrong.UnitsSold++
	if orc.matches(0, wrong, 0, 3) {
		t.Error("corrupted result accepted")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 10 * ms},
		{Name: "child", ID: 2, Parent: 1, Start: 2 * ms, End: 5 * ms},
		{Name: "child", ID: 3, Parent: 1, Start: 4 * ms, End: 8 * ms},
		{Name: "child", ID: 4, Parent: 1, Start: 9 * ms, End: 12 * ms}, // clipped to the parent
	}
	sums := summarizeSpans(spans)
	if got := sums["parent"].Self; got != 3*ms {
		t.Errorf("parent self time %v, want 3ms", got)
	}
	if got := sums["child"]; got.Count != 3 || got.Self != got.Total {
		t.Errorf("child summary %+v", got)
	}
}

func TestThenConcatenatesSequentialPhases(t *testing.T) {
	var r loopResult
	r.then(loopResult{Lat: []time.Duration{1}, Done: []time.Duration{time.Second}, Wall: 2 * time.Second, Attempted: 1})
	r.then(loopResult{Lat: []time.Duration{2}, Done: []time.Duration{time.Second}, Wall: 2 * time.Second, Attempted: 1})
	if r.Wall != 4*time.Second || r.Attempted != 2 {
		t.Fatalf("wall %v attempted %d, want 4s and 2", r.Wall, r.Attempted)
	}
	if want := []time.Duration{time.Second, 3 * time.Second}; !reflect.DeepEqual(r.Done, want) {
		t.Errorf("completion offsets %v, want %v", r.Done, want)
	}
	if got := r.perSecond(); !reflect.DeepEqual(got, []float64{0, 1, 0, 1}) {
		t.Errorf("per-second completions %v", got)
	}
}
