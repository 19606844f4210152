package mdhf

// BenchmarkServingTraffic is the shared-scan serving harness: a traffic
// generator over the Warehouse facade driving a skewed APB-1 mix — most
// queries confine to the current ("hot") quarter, a flash-crowd slice
// hammers one store with an unconfined scan, the rest roam cold months —
// against a declustered disk-latency backend, with shared scans off and
// on. The closed-loop model runs 16/64/256 streams issuing queries
// back-to-back; the open-loop model fires Poisson arrivals at a fixed
// offered rate regardless of completions. Every result is checked
// byte-for-byte against the in-memory solo oracle while the clock runs,
// and throughput plus p50/p95/p99 latency per point are written to
// BENCH_serving.json under -write-bench (see writeBenchReport).

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// trafficPoint is one (model, streams, sharing) measurement in
// BENCH_serving.json.
type trafficPoint struct {
	Model   string  `json:"model"` // "closed" or "open"
	Streams int     `json:"streams"`
	Shared  bool    `json:"shared"`
	QPS     float64 `json:"qps"`
	P50Us   int64   `json:"p50_us"`
	P95Us   int64   `json:"p95_us"`
	P99Us   int64   `json:"p99_us"`
	// Batches and PhysReadsSaved are the warehouse's shared-scan counters
	// accumulated during this point (zero with sharing off).
	Batches        int64 `json:"batches"`
	PhysReadsSaved int64 `json:"phys_reads_saved"`
}

// trafficReport is the schema of BENCH_serving.json.
type trafficReport struct {
	Benchmark     string         `json:"benchmark"`
	BaseRows      int            `json:"base_rows"`
	Disks         int            `json:"disks"`
	IODelayUs     int64          `json:"io_delay_us"`
	WindowUs      int64          `json:"window_us"`
	Execs         int            `json:"execs"`
	HotFraction   float64        `json:"hot_fraction"`
	FlashFraction float64        `json:"flash_fraction"`
	OpenRateQPS   float64        `json:"open_arrival_qps"`
	OpenBurst     int            `json:"open_burst"`
	Points        []trafficPoint `json:"points"`
	// SharedSpeedup64 is the closed-loop shared-on/shared-off throughput
	// ratio at 64 streams — the headline shared-scan number.
	SharedSpeedup64 float64 `json:"shared_speedup_closed_64"`
}

// trafficMix is the skewed serving mix: hot-quarter confinements, a
// flash-crowd store scan, and a cold tail.
type trafficMix struct {
	hot, flash, cold []Query
}

func newTrafficMix(b *testing.B, star *Star) trafficMix {
	parse := func(text string) Query {
		q, err := ParseQuery(star, text)
		if err != nil {
			b.Fatal(err)
		}
		return q
	}
	base := newCacheBenchWorkload(b, star)
	m := trafficMix{hot: base.hot, cold: base.cold}
	// The flash crowd converges on one store: an unconfined (Q3/Q4) scan
	// every fragment must serve — the worst case solo, and the best case
	// shared, since every concurrent copy overlaps completely.
	m.flash = append(m.flash,
		parse("customer::store=0"),
		parse("customer::store=0 group by product::group"))
	return m
}

// sequence deals a deterministic arrival order: hotFrac of the picks
// from the hot set, flashFrac from the flash-crowd pair, the rest cold.
func (m trafficMix) sequence(seed int64, n int, hotFrac, flashFrac float64) []Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Query, n)
	for i := range out {
		switch u := rng.Float64(); {
		case u < hotFrac:
			out[i] = m.hot[rng.Intn(len(m.hot))]
		case u < hotFrac+flashFrac:
			out[i] = m.flash[rng.Intn(len(m.flash))]
		default:
			out[i] = m.cold[rng.Intn(len(m.cold))]
		}
	}
	return out
}

// latPercentiles returns the p50/p95/p99 of the latencies in µs.
func latPercentiles(lat []time.Duration) (p50, p95, p99 int64) {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)*50/100].Microseconds(),
		s[len(s)*95/100].Microseconds(),
		s[len(s)*99/100].Microseconds()
}

// runClosedTraffic drives the sequence through the warehouse with
// `streams` closed-loop workers (each issues the next query as soon as
// its previous one completes), checking every result against the oracle
// inside the timed region. It returns the per-query latencies and the
// wall time of the whole run.
func runClosedTraffic(b *testing.B, ctx context.Context, w *Warehouse, seqn []Query, want []Result, streams int) ([]time.Duration, time.Duration) {
	b.Helper()
	lat := make([]time.Duration, len(seqn))
	next := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	start := time.Now()
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				got, _, err := w.Query(seqn[i]).Execute(ctx)
				lat[i] = time.Since(t0)
				if err == nil && !reflect.DeepEqual(got, want[i]) {
					err = fmt.Errorf("query %d diverged from the solo oracle", i)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range seqn {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		b.Fatal(firstErr)
	}
	return lat, wall
}

// runOpenTraffic fires the sequence as an open arrival process: query i
// is launched at its pre-dealt arrival instant whether or not earlier
// queries finished, so latency includes any queueing the backend builds
// up under the offered rate. Results are oracle-checked in the timed
// region; returns per-query sojourn latencies and the wall time.
func runOpenTraffic(b *testing.B, ctx context.Context, w *Warehouse, seqn []Query, want []Result, arrivals []time.Duration) ([]time.Duration, time.Duration) {
	b.Helper()
	lat := make([]time.Duration, len(seqn))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	start := time.Now()
	for i := range seqn {
		if d := arrivals[i] - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			got, _, err := w.Query(seqn[i]).Execute(ctx)
			lat[i] = time.Since(t0)
			if err == nil && !reflect.DeepEqual(got, want[i]) {
				err = fmt.Errorf("query %d diverged from the solo oracle", i)
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		b.Fatal(firstErr)
	}
	return lat, wall
}

func BenchmarkServingTraffic(b *testing.B) {
	ctx := context.Background()
	star := APB1Scaled(60)
	tab, err := GenerateData(star, 2)
	if err != nil {
		b.Fatal(err)
	}
	const (
		disks     = 4
		ioDelay   = 200 * time.Microsecond
		window    = 1 * time.Millisecond
		execs     = 256
		openExecs = 160
		openBurst = 16
		hotFrac   = 0.70
		flashFrac = 0.15
		seed      = 47
	)
	mix := newTrafficMix(b, star)
	seqn := mix.sequence(seed, execs, hotFrac, flashFrac)
	cfg := Config{Star: star, Fragmentation: "time::month, product::group", Table: tab}

	// Solo oracle results from an in-memory warehouse, computed once.
	oracle, err := Open(ctx, cfg)
	if err != nil {
		b.Fatal(err)
	}
	want := make([]Result, len(seqn))
	for i, q := range seqn {
		if want[i], _, err = oracle.Query(q).Execute(ctx); err != nil {
			b.Fatal(err)
		}
	}
	oracle.Close()

	open := func(b *testing.B, shared bool) *Warehouse {
		opts := []Option{WithDisks(disks, RoundRobin), WithIODelay(ioDelay), WithWorkers(8)}
		if shared {
			opts = append(opts, WithSharedScans(window))
		}
		w, err := Open(ctx, cfg, opts...)
		if err != nil {
			b.Fatal(err)
		}
		warm, err := w.QueryText("")
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := warm.Execute(ctx); err != nil { // build outside timing
			b.Fatal(err)
		}
		return w
	}

	report := trafficReport{
		Benchmark:     "BenchmarkServingTraffic",
		BaseRows:      tab.N(),
		Disks:         disks,
		IODelayUs:     ioDelay.Microseconds(),
		WindowUs:      window.Microseconds(),
		Execs:         execs,
		HotFraction:   hotFrac,
		FlashFraction: flashFrac,
	}

	measure := func(b *testing.B, w *Warehouse, run func() ([]time.Duration, time.Duration), model string, streams int, shared bool) trafficPoint {
		b.Helper()
		var best trafficPoint
		before := w.ServingStats().Shared
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			lat, wall := run()
			p := trafficPoint{Model: model, Streams: streams, Shared: shared,
				QPS: float64(len(lat)) / wall.Seconds()}
			p.P50Us, p.P95Us, p.P99Us = latPercentiles(lat)
			if p.QPS > best.QPS {
				best = p
			}
		}
		b.StopTimer()
		after := w.ServingStats().Shared
		best.Batches = after.Batches - before.Batches
		best.PhysReadsSaved = after.PhysReadsSaved - before.PhysReadsSaved
		b.ReportMetric(best.QPS, "q/s")
		b.ReportMetric(float64(best.P95Us), "p95-µs")
		return best
	}

	// Closed loop: streams issue back-to-back, shared off vs on.
	qps64 := map[bool]float64{}
	for _, streams := range []int{16, 64, 256} {
		for _, shared := range []bool{false, true} {
			streams, shared := streams, shared
			b.Run(fmt.Sprintf("closed/streams=%d/shared=%v", streams, shared), func(b *testing.B) {
				w := open(b, shared)
				defer w.Close()
				point := measure(b, w, func() ([]time.Duration, time.Duration) {
					return runClosedTraffic(b, ctx, w, seqn, want, streams)
				}, "closed", streams, shared)
				report.Points = append(report.Points, point)
				if streams == 64 {
					qps64[shared] = point.QPS
				}
			})
		}
	}
	if qps64[false] > 0 {
		report.SharedSpeedup64 = qps64[true] / qps64[false]
	}

	// Open loop: bursty Poisson arrivals at a fixed offered rate well
	// above the sharing-off capacity. Bursts model the flash crowd — a
	// crowd of queries arriving together, independent of completions — so
	// the baseline's queue explodes while the batching window coalesces
	// each burst on arrival.
	rate := qps64[false] * 4
	if rate <= 0 {
		rate = 100
	}
	report.OpenRateQPS = rate
	report.OpenBurst = openBurst
	arrivals := make([]time.Duration, openExecs)
	rng := rand.New(rand.NewSource(seed + 1))
	at := time.Duration(0)
	for i := range arrivals {
		if i%openBurst == 0 {
			// Exponential gaps between bursts; the burst's queries arrive
			// back-to-back at the burst instant.
			at += time.Duration(rng.ExpFloat64() * float64(openBurst) * float64(time.Second) / rate)
		}
		arrivals[i] = at
	}
	for _, shared := range []bool{false, true} {
		shared := shared
		b.Run(fmt.Sprintf("open/shared=%v", shared), func(b *testing.B) {
			w := open(b, shared)
			defer w.Close()
			point := measure(b, w, func() ([]time.Duration, time.Duration) {
				return runOpenTraffic(b, ctx, w, seqn[:openExecs], want[:openExecs], arrivals)
			}, "open", 0, shared)
			report.Points = append(report.Points, point)
		})
	}

	writeBenchReport(b, "BENCH_serving.json", report)
	fmt.Printf("BENCH_serving.json: %d rows, %d disks at %dµs, %d execs; ",
		report.BaseRows, report.Disks, report.IODelayUs, report.Execs)
	for _, p := range report.Points {
		if p.Model == "closed" {
			fmt.Printf("closed/%d %s %.0f q/s p95 %dµs; ", p.Streams, onOff(p.Shared), p.QPS, p.P95Us)
		} else {
			fmt.Printf("open %s p99 %dµs; ", onOff(p.Shared), p.P99Us)
		}
	}
	fmt.Printf("64-stream shared speedup %.2fx\n", report.SharedSpeedup64)
}

func onOff(v bool) string {
	if v {
		return "shared"
	}
	return "solo"
}
