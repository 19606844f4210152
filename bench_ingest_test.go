package mdhf

// BenchmarkAppendWhileServing establishes the ingestion trajectory of the
// epoch-versioned warehouse: sustained append throughput while 4 query
// streams keep serving and background compaction bounds the live delta
// set, then the per-query cost of folding a fixed delta load against the
// same query after compaction folded it back into the base. With
// -write-bench (see writeBenchReport) the measured numbers are written to
// BENCH_ingest.json (the first entry of the
// machine-readable perf history the ROADMAP asks for) so successive PRs
// can compare like with like.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// ingestBenchReport is the schema of BENCH_ingest.json.
type ingestBenchReport struct {
	Benchmark        string  `json:"benchmark"`
	BaseRows         int     `json:"base_rows"`
	BatchRows        int     `json:"batch_rows"`
	ServingStreams   int     `json:"serving_streams"`
	CompactThreshold int     `json:"auto_compact_rows"`
	AppendRowsPerSec float64 `json:"append_rows_per_sec"`
	Compactions      int64   `json:"compactions_during_append"`
	DeltaRowsFolded  int64   `json:"delta_rows_folded"`
	QueryDeltaNsOp   float64 `json:"query_with_deltas_ns_op"`
	QueryCompactNsOp float64 `json:"query_compacted_ns_op"`
	DeltaOverheadPct float64 `json:"delta_overhead_pct"`
}

func BenchmarkAppendWhileServing(b *testing.B) {
	ctx := context.Background()
	star := APB1Scaled(60)
	tab, err := GenerateData(star, 3)
	if err != nil {
		b.Fatal(err)
	}
	const batchRows = 512
	const streams = 4
	const compactAt = 16384
	w, err := Open(ctx, Config{
		Star:          star,
		Fragmentation: "time::month, product::group",
		Table:         tab,
	}, WithWorkers(8), WithDisks(4, RoundRobin), WithAutoCompaction(compactAt))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	})

	q, err := NewQueryGenerator(star, 7).Next(OneMonthOneGroup)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := w.Query(q).Execute(ctx); err != nil {
		b.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	batch := func() []FactRow {
		rows := make([]FactRow, batchRows)
		for r := range rows {
			leaves := make([]int32, len(star.Dims))
			for d := range leaves {
				leaves[d] = int32(rng.Intn(star.Dims[d].LeafCard()))
			}
			rows[r] = FactRow{Leaves: leaves, UnitsSold: 1, DollarSales: 2, Cost: 1}
		}
		return rows
	}

	report := ingestBenchReport{
		Benchmark:        "BenchmarkAppendWhileServing",
		BaseRows:         tab.N(),
		BatchRows:        batchRows,
		ServingStreams:   streams,
		CompactThreshold: compactAt,
	}

	// Phase 1: sustained appends racing a fixed set of live query streams,
	// with background compaction keeping the live delta set bounded — the
	// steady-state ingest regime.
	b.Run("append", func(b *testing.B) {
		stop := make(chan struct{})
		errc := make(chan error, streams)
		var wg sync.WaitGroup
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, _, err := w.Query(q).Execute(ctx); err != nil {
						errc <- err
						return
					}
				}
			}()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Append(ctx, batch()); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
		select {
		case err := <-errc:
			b.Fatal(err)
		default:
		}
		rps := float64(b.N*batchRows) / b.Elapsed().Seconds()
		b.ReportMetric(rps, "rows/sec")
		report.AppendRowsPerSec = rps
		report.Compactions = w.ServingStats().Compactions
	})

	// Phase 2: per-query cost with a fixed, known delta load live — the
	// read-side price of ingestion. Drain whatever phase 1 left behind,
	// then append a load below the auto-compaction threshold.
	if err := w.Compact(ctx); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < compactAt/2/batchRows; i++ {
		if err := w.Append(ctx, batch()); err != nil {
			b.Fatal(err)
		}
	}
	report.DeltaRowsFolded = w.ServingStats().DeltaRows
	b.Run("query/with-deltas", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := w.Query(q).Execute(ctx); err != nil {
				b.Fatal(err)
			}
		}
		report.QueryDeltaNsOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	// Phase 3: the same query after compaction rebuilt the backend.
	if err := w.Compact(ctx); err != nil {
		b.Fatal(err)
	}
	b.Run("query/compacted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := w.Query(q).Execute(ctx); err != nil {
				b.Fatal(err)
			}
		}
		report.QueryCompactNsOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})

	if report.QueryCompactNsOp > 0 {
		report.DeltaOverheadPct = 100 * (report.QueryDeltaNsOp - report.QueryCompactNsOp) / report.QueryCompactNsOp
	}
	writeBenchReport(b, "BENCH_ingest.json", report)
	fmt.Printf("BENCH_ingest.json: append %.0f rows/sec (%d compactions), delta overhead %+.1f%% over %d live rows\n",
		report.AppendRowsPerSec, report.Compactions, report.DeltaOverheadPct, report.DeltaRowsFolded)
}
