// Command perfbench is the repository's benchmark: it runs one of four
// APB-1 workloads against the MDHF warehouse, checks every result
// against a scan oracle, and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run) as the last line of its
// output, a JSON object with the keys correct, attempted, failed and
// metrics. Run it through run.sh from the root of a checkout:
//
//	bash perfbench/run.sh --workload olap_cpu --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	mdhf "repro"
)

// metricName is the form every reported metric name takes.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Units of the gated end-to-end metrics, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_qps", "q/s"},
	{"query_p50_ms", "ms"},
	{"heap_peak_mb", "MB"},
}

// extraUnits are the units of the workload-specific end-to-end figures
// (printed and recorded, not part of the final line).
var extraUnits = map[string]string{
	"query_p99_ms":       "ms",
	"max_rate_qps":       "q/s",
	"append_rows_per_s":  "rows/s",
	"append_p50_ms":      "ms",
	"append_p99_ms":      "ms",
	"disk_bytes_per_row": "B/row",
	"fail_frac":          "ratio",
	"solo_scan_ms":       "ms",
	"compactions":        "count",
	"batches_in_window":  "count",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var runner func(*env) (*outcome, error)
	for _, w := range workloads {
		if w.name == *name {
			runner = w.run
		}
	}
	if runner == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags\n", *name)
		return 2
	}
	scratch, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	e := &env{ctx: context.Background(), name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: scratch}
	if *trace == 1 {
		e.tr = newTracer()
	}
	e.star = mdhf.APB1Scaled(scale)
	if e.table, err = mdhf.GenerateData(e.star, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	t0 := time.Now()
	o, err := runner(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if e.tr != nil {
		addSpanMetrics(e, o)
	}
	if o.Attempted > 0 {
		o.Extra["fail_frac"] = float64(o.Failed) / float64(o.Attempted)
	}
	res, err := buildResult(o, e.tr != nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printHuman(o, e.tr != nil)
	rec := newRecord(e, o, time.Since(t0))
	if line, err := json.Marshal(rec); err == nil {
		fmt.Printf("# record %s\n", line)
	}
	if o.FirstErr != "" {
		fmt.Fprintln(os.Stderr, "perfbench: first error:", o.FirstErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// buildResult assembles the final line: every gated end-to-end metric
// (untraced) or every per-layer metric (traced).
func buildResult(o *outcome, traced bool) (result, error) {
	res := result{Correct: o.Wrong == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	if traced {
		for _, m := range perLayer {
			v, ok := o.Layers[m.name]
			if !ok {
				return res, fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := o.Metrics[m.name]
			if !ok {
				return res, fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	}
	for name, m := range res.Metrics {
		if !metricName.MatchString(name) {
			return res, fmt.Errorf("bad metric name %q", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return res, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return res, nil
}

// printHuman prints every metric by name with its unit.
func printHuman(o *outcome, traced bool) {
	if !traced {
		for _, m := range endToEnd {
			fmt.Printf("%-28s %14.4f %s\n", m.name, o.Metrics[m.name], m.unit)
		}
	}
	for _, k := range sortedKeys(o.Extra) {
		unit := extraUnits[k]
		if strings.HasSuffix(k, "_ms") {
			unit = "ms"
		}
		fmt.Printf("%-28s %14.4f %s\n", k, o.Extra[k], unit)
	}
	if traced {
		for _, k := range sortedKeys(o.Layers) {
			fmt.Printf("%-40s %14.4f %s\n", k, o.Layers[k], layerUnit(k))
		}
	}
}

// runRecord is everything needed to reproduce and judge one run.
type runRecord struct {
	Workload   string                    `json:"workload"`
	Seed       int64                     `json:"seed"`
	Seconds    float64                   `json:"seconds"`
	Traced     bool                      `json:"traced"`
	Commit     string                    `json:"commit"`
	GoVersion  string                    `json:"go_version"`
	GOMAXPROCS int                       `json:"gomaxprocs"`
	NumCPU     int                       `json:"nproc"`
	CPU        string                    `json:"cpu_model"`
	Rows       int                       `json:"rows"`
	Params     map[string]any            `json:"params"`
	Samples    map[string]spread         `json:"samples"`
	Latency    map[string]latencySummary `json:"latency"`
	RunWallS   float64                   `json:"run_wall_s"`
}

func newRecord(e *env, o *outcome, wall time.Duration) runRecord {
	return runRecord{
		Workload: e.name, Seed: e.seed, Seconds: e.seconds.Seconds(), Traced: e.tr != nil,
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPU: cpuModel(), Rows: e.table.N(),
		Params: o.Params, Samples: o.Samples, Latency: o.Latency, RunWallS: wall.Seconds(),
	}
}

// commit is the VCS revision the binary was built from, when the build
// could see one, else the PERFBENCH_COMMIT environment variable.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}
