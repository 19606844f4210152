package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// tailQuantile returns the highest quantile of the ladder 0.999, 0.99,
// 0.95, 0.9, 0.5 that at most cap reaches and that leaves at least
// minBeyond of n samples beyond it, or 0 when even the median does not.
func tailQuantile(n int, cap float64) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.5} {
		if p > cap {
			continue
		}
		if float64(n)*(1-p) >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// quantile returns the nearest-rank p-quantile of sorted values.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latencySummary describes one set of per-operation latencies.
type latencySummary struct {
	N       int     `json:"n"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"` // whatever the number of samples
	Q1Ms    float64 `json:"q1_ms"`
	Q3Ms    float64 `json:"q3_ms"`
	Tail    float64 `json:"tail_quantile"` // the quantile TailMs reports
	TailMs  float64 `json:"tail_ms"`
	MaxMs   float64 `json:"max_ms"`
	MeanMs  float64 `json:"mean_ms"`
	Beyond  int     `json:"samples_beyond_tail"`
	Percent string  `json:"tail_label"`
}

// summarize sorts a copy of lat and reports its median, quartiles and
// its tail percentile (at most p99) by the minBeyond rule.
func summarize(lat []time.Duration) latencySummary {
	ms := make([]float64, len(lat))
	sum := 0.0
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
		sum += ms[i]
	}
	sort.Float64s(ms)
	s := latencySummary{N: len(ms)}
	if len(ms) == 0 {
		return s
	}
	s.P50Ms = quantile(ms, 0.5)
	s.Q1Ms = quantile(ms, 0.25)
	s.Q3Ms = quantile(ms, 0.75)
	s.P99Ms = quantile(ms, 0.99)
	s.MaxMs = ms[len(ms)-1]
	s.MeanMs = sum / float64(len(ms))
	s.Tail = tailQuantile(len(ms), 0.99)
	if s.Tail > 0 {
		s.TailMs = quantile(ms, s.Tail)
		s.Beyond = len(ms) - int(math.Ceil(s.Tail*float64(len(ms))))
	}
	s.Percent = percentLabel(s.Tail)
	return s
}

func percentLabel(p float64) string {
	switch p {
	case 0.999:
		return "p99.9"
	case 0.99:
		return "p99"
	case 0.95:
		return "p95"
	case 0.9:
		return "p90"
	case 0.5:
		return "p50"
	}
	return "none"
}

// spread is a sample set with its median and quartiles, as recorded in
// the run record.
type spread struct {
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
}

func newSpread(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return spread{Samples: xs, Median: median(s), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// median of sorted values; the mean of the middle two for even counts.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
