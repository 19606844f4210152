package mdhf

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each benchmark
// reports the reproduced quantities as custom metrics so that
// bench_output.txt doubles as the measured record for EXPERIMENTS.md.
//
// Figure benchmarks run the full-scale APB-1 simulation and take tens of
// seconds per iteration; use -bench=Table for the fast subset.

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/experiments"
)

// writeBench makes the benchmarks that report to a committed
// BENCH_*.json file rewrite it; plain and smoke runs leave the committed
// files alone. For example:
//
//	go test -run '^$' -bench BenchmarkFaultTolerance . -args -write-bench
var writeBench = flag.Bool("write-bench", false, "rewrite the committed BENCH_*.json files from this run")

// writeBenchReport writes report as indented JSON to the named file when
// -write-bench is set.
func writeBenchReport(b *testing.B, name string, report any) {
	b.Helper()
	if !*writeBench {
		return
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(name, append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTable1Encoding regenerates Table 1: the hierarchical encoding of
// the PRODUCT dimension (15 bits, dddllfffggcoooo).
func BenchmarkTable1Encoding(b *testing.B) {
	var bits int
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Table1()
		bits = 0
		for _, r := range rows {
			bits += r.Bits
		}
	}
	b.ReportMetric(float64(bits), "total-bits")
}

// BenchmarkTable2FragmentationOptions regenerates Table 2: counting the 167
// fragmentation options under bitmap fragment size constraints.
func BenchmarkTable2FragmentationOptions(b *testing.B) {
	var exact int
	for i := 0; i < b.N; i++ {
		cells := experiments.Table2()
		exact = 0
		for _, c := range cells {
			if c.Count == c.Paper {
				exact++
			}
		}
	}
	b.ReportMetric(float64(exact), "cells-matching-paper")
}

// BenchmarkTable3IOCharacteristics regenerates Table 3: 1STORE I/O under
// Fopt vs Fnosupp.
func BenchmarkTable3IOCharacteristics(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		cols := experiments.Table3()
		ratio = cols[1].Cost.TotalMB() / cols[0].Cost.TotalMB()
	}
	b.ReportMetric(ratio, "nosupp/opt-IO-ratio")
}

// BenchmarkTable6FragmentationParameters regenerates Table 6.
func BenchmarkTable6FragmentationParameters(b *testing.B) {
	var frags int64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table6()
		frags = rows[2].Fragments
	}
	b.ReportMetric(float64(frags), "FMonthCode-fragments")
}

// BenchmarkFigure3StoreSpeedup regenerates Figure 3: the disk-bound 1STORE
// speed-up experiment at full APB-1 scale (15 simulation runs).
func BenchmarkFigure3StoreSpeedup(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Figure3(experiments.Options{Seed: 1})
	}
	// Report the p = d/5 curve: response times at d=20 and d=100 and the
	// speed-up between them (paper: ~600s -> ~120s, slightly superlinear).
	for _, s := range fig.Series {
		if s.Label == "p = d/5" {
			b.ReportMetric(s.Points[0].ResponseTime, "s-at-d20")
			b.ReportMetric(s.Points[len(s.Points)-1].ResponseTime, "s-at-d100")
			b.ReportMetric(s.Points[len(s.Points)-1].Speedup, "speedup-d100")
		}
	}
}

// BenchmarkFigure4MonthSpeedup regenerates Figure 4: the CPU-bound 1MONTH
// speed-up experiment (20 simulation runs, incl. the t=5 fix).
func BenchmarkFigure4MonthSpeedup(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Figure4(experiments.Options{Seed: 1})
	}
	for _, s := range fig.Series {
		last := s.Points[len(s.Points)-1]
		switch s.Label {
		case "d = 20 (t=4)":
			b.ReportMetric(s.Points[0].ResponseTime, "s-at-p1")
		case "d = 100 (t=4)":
			b.ReportMetric(last.ResponseTime, "s-at-p50-t4")
		case "d = 100 (t=5)":
			b.ReportMetric(last.ResponseTime, "s-at-p50-t5")
		}
	}
}

// BenchmarkFigure5ParallelBitmapIO regenerates Figure 5: parallel vs
// non-parallel bitmap I/O for 1STORE over t = 1..13.
func BenchmarkFigure5ParallelBitmapIO(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Figure5(experiments.Options{Seed: 1})
	}
	var par1, seq1 float64
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			if pt.X == 1 {
				if s.Label == "parallel I/O" {
					par1 = pt.ResponseTime
				} else {
					seq1 = pt.ResponseTime
				}
			}
		}
	}
	if seq1 > 0 {
		b.ReportMetric((1-par1/seq1)*100, "pct-improvement-at-t1")
	}
}

// BenchmarkFigure6StoreByFragmentation regenerates the 1STORE panel of
// Figure 6 (group/class/code fragmentations; the code one runs 345,600
// subqueries per query).
func BenchmarkFigure6StoreByFragmentation(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Figure6Store(experiments.Options{Seed: 1})
	}
	for _, s := range fig.Series {
		last := s.Points[len(s.Points)-1]
		switch s.Label {
		case "product group fragmentation":
			b.ReportMetric(last.ResponseTime, "s-group-dop160")
		case "product code fragmentation":
			b.ReportMetric(last.ResponseTime, "s-code-dop160")
		}
	}
}

// BenchmarkFigure6CodeQuarterByFragmentation regenerates the 1CODE1QUARTER
// panel of Figure 6.
func BenchmarkFigure6CodeQuarterByFragmentation(b *testing.B) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.Figure6CodeQuarter(experiments.Options{Seed: 1})
	}
	for _, s := range fig.Series {
		best := s.Points[len(s.Points)-1].ResponseTime
		switch s.Label {
		case "product group fragmentation":
			b.ReportMetric(best, "s-group-dop5")
		case "product code fragmentation":
			b.ReportMetric(best, "s-code-dop5")
		}
	}
}
