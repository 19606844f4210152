package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// failedLatency stands in for the latency of a failed or refused
// operation: it misses every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// errMismatch marks a result that differs from the oracle. It fails the
// whole run, not just the operation.
var errMismatch = errors.New("result differs from the oracle")

// loopResult is what one load phase measured.
type loopResult struct {
	Lat       []time.Duration // per operation; failedLatency when it failed
	Done      []time.Duration // completion offsets from the phase start
	Wall      time.Duration
	Attempted int64
	Failed    int64
	Wrong     int64
	FirstErr  error
}

func (r *loopResult) record(lat, done time.Duration, err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		lat = failedLatency
		if errors.Is(err, errMismatch) {
			r.Wrong++
		}
		if r.FirstErr == nil {
			r.FirstErr = err
		}
	}
	r.Lat = append(r.Lat, lat)
	r.Done = append(r.Done, done)
}

func (r *loopResult) merge(o loopResult) {
	r.Lat = append(r.Lat, o.Lat...)
	r.Done = append(r.Done, o.Done...)
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Wrong += o.Wrong
	if r.FirstErr == nil {
		r.FirstErr = o.FirstErr
	}
}

// then appends a phase that ran after r: its completion offsets move by
// r's wall time.
func (r *loopResult) then(o loopResult) {
	for i := range o.Done {
		o.Done[i] += r.Wall
	}
	wall := r.Wall + o.Wall
	r.merge(o)
	r.Wall = wall
}

// okLatencies drops failed operations' stand-in latencies.
func (r *loopResult) okLatencies() []time.Duration {
	out := make([]time.Duration, 0, len(r.Lat))
	for _, d := range r.Lat {
		if d != failedLatency {
			out = append(out, d)
		}
	}
	return out
}

// op is one operation of a load phase.
type op func(seq int64, client int) error

// perSecond buckets completions into whole seconds of the phase and
// returns the completion rate of each full second.
func (r *loopResult) perSecond() []float64 {
	n := int(r.Wall / time.Second)
	if n == 0 {
		return nil
	}
	counts := make([]float64, n)
	for _, d := range r.Done {
		if k := int(d / time.Second); k < n {
			counts[k]++
		}
	}
	return counts
}

// closedLoop runs clients goroutines that each issue op back-to-back,
// timing every operation from issue to reply, until dur has elapsed. op
// receives a global sequence number (unique across clients) and the
// client index.
func closedLoop(clients int, dur time.Duration, op op) loopResult {
	var next atomic.Int64
	parts := make([]loopResult, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				t0 := time.Now()
				err := op(next.Add(1)-1, c)
				t1 := time.Now()
				parts[c].record(t1.Sub(t0), t1.Sub(start), err)
			}
		}(c)
	}
	wg.Wait()
	var r loopResult
	for _, p := range parts {
		r.merge(p)
	}
	r.Wall = time.Since(start)
	return r
}

// fixedLoop runs op n times back to back on one client, numbering the
// operations 0 … n-1, and stops early once limit has elapsed.
func fixedLoop(n int64, limit time.Duration, op op) loopResult {
	var r loopResult
	start := time.Now()
	for seq := int64(0); seq < n && time.Since(start) < limit; seq++ {
		t0 := time.Now()
		err := op(seq, 0)
		t1 := time.Now()
		r.record(t1.Sub(t0), t1.Sub(start), err)
	}
	r.Wall = time.Since(start)
	return r
}

// doneBy counts the operations that succeeded by offset t.
func (r *loopResult) doneBy(t time.Duration) int {
	n := 0
	for i, d := range r.Done {
		if d <= t && r.Lat[i] != failedLatency {
			n++
		}
	}
	return n
}

// openResult adds the generator's lateness to an open loop's
// measurements.
type openResult struct {
	loopResult
	Lag []time.Duration // send time minus due time, per operation
}

// clock abstracts time for the open-loop generator so its accounting
// can be tested without sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

// timerSlack is how long before a due time the generator wakes from its
// sleep; it yields in a loop for the rest. A sleep alone overshoots by up
// to a millisecond (median 0.57 ms on a 2-vCPU Xeon VM), which would
// charge the generator's timer granularity to every operation.
const timerSlack = 1500 * time.Microsecond

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openLoop sends operation i at offset due[i] from the start, whether or
// not earlier operations have replied (independent users). Latency runs
// from the due time, not the send time, so a stalled generator charges
// its lateness to the operations it delayed; the lateness itself is
// reported as Lag. It returns once every operation has replied. op
// receives i as its sequence number.
func openLoop(clk clock, due []time.Duration, op op) openResult {
	var r openResult
	r.Lag = make([]time.Duration, len(due))
	lat := make([]time.Duration, len(due))
	done := make([]time.Duration, len(due))
	errs := make([]error, len(due))
	var wg sync.WaitGroup
	start := clk.Now()
	for i, d := range due {
		clk.SleepUntil(start.Add(d))
		r.Lag[i] = clk.Now().Sub(start) - d
		wg.Add(1)
		go func(i int, d time.Duration) {
			defer wg.Done()
			errs[i] = op(int64(i), 0)
			end := clk.Now().Sub(start)
			lat[i], done[i] = end-d, end
		}(i, d)
	}
	wg.Wait()
	r.Wall = clk.Now().Sub(start)
	for i := range due {
		r.record(lat[i], done[i], errs[i])
	}
	return r
}

// poisson returns the due offsets of Poisson arrivals at rate per second
// over dur, conditioned on their count being rate × dur: that many
// arrival instants drawn uniformly over dur and sorted. The offered rate
// is then the same on every seed; only the arrival pattern varies.
func poisson(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	n := int(math.Round(rate * dur.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	slices.Sort(out)
	return out
}

// heapSampler records the peak of the live Go heap — the bytes the last
// garbage collection found reachable — while it runs. Unlike the heap
// in use between collections it does not swing with GC timing.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak.Load() {
			h.peak.Store(v)
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}

func mismatch(what string) error { return fmt.Errorf("%s: %w", what, errMismatch) }
