// Command benchjson converts `go test -bench` output into a stable JSON
// document so the performance trajectory of the simulator can be tracked
// file-by-file in CI artifacts.
//
// Usage:
//
//	go test -bench ... -benchmem | benchjson [-baseline base.json] [-out file.json]
//
// Every benchmark line becomes one record carrying ns/op, B/op, allocs/op,
// all custom metrics (the per-technique headline p50s the Figure 2
// benchmark reports), the GOMAXPROCS it ran under, and the shard count for
// /shards=N sub-benchmarks. With -baseline, the benchmarks of a previous
// benchjson file are embedded verbatim and per-benchmark percentage
// reductions are computed for ns/op and allocs/op across every shared name
// (Figure2, BGPConvergence, the sharded convergence benches, ...), which is
// how BENCH_PR4.json records the zero-copy kernel's gains against the
// pre-change tree.
//
// Two CI gates ride on the parsed numbers, both evaluated after the JSON is
// written so failing runs still leave their evidence on disk:
//
//   - -max-regression-pct P fails the run when any benchmark shared with the
//     baseline regressed more than P% in ns/op;
//   - -min-metric Name:metric:floor (repeatable) fails the run when a custom
//     metric falls below its floor — e.g. the ≥3x sharded-convergence
//     speedup. Parallel-speedup floors are unprovable on one processor, so
//     single-proc runs downgrade the gate to a warning;
//   - -max-metric Name:metric:ceiling (repeatable) fails the run when a
//     custom metric exceeds its ceiling — e.g. the ≤1.15 static-partition
//     event imbalance. Event counts are machine-deterministic, so unlike
//     the other gates this one holds on single-proc runs too.
//
// The first two gates downgrade to warnings on single-proc runs: one processor
// cannot exhibit a parallel speedup, and its ns/op timings are dominated
// by scheduler interference between the benchmark's goroutines (the
// goroutine-per-shard benches especially), far outside the regression
// allowance run to run. The numbers are still recorded for trajectory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bestofboth/pkg/bestofboth/api"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	baselinePath := flag.String("baseline", "", "benchjson file whose benchmarks are embedded as the baseline")
	outPath := flag.String("out", "", "output file (default stdout)")
	maxRegression := flag.Float64("max-regression-pct", 0,
		"with -baseline, exit nonzero if any shared benchmark's ns/op regressed by more than this percentage (0 disables)")
	var minMetrics multiFlag
	flag.Var(&minMetrics, "min-metric",
		"Name:metric:floor — exit nonzero if the named benchmark's custom metric is below floor; repeatable. "+
			"Skipped with a warning on single-proc runs, which cannot demonstrate parallel speedups.")
	var maxMetrics multiFlag
	flag.Var(&maxMetrics, "max-metric",
		"Name:metric:ceiling — exit nonzero if the named benchmark's custom metric exceeds ceiling; repeatable. "+
			"Enforced on single-proc runs too: the gated metrics are machine-deterministic counts, not timings.")
	flag.Parse()

	out, err := parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(out.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}
	if *baselinePath != "" {
		base, err := readFile(*baselinePath)
		if err != nil {
			fatal(err)
		}
		out.Baseline = base.Benchmarks
		out.ReductionsVsBaselinePct = reductions(base.Benchmarks, out.Benchmarks)
	}
	out.APIVersion = api.Version
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	b = append(b, '\n')
	if *outPath == "" {
		os.Stdout.Write(b)
	} else {
		if err := os.WriteFile(*outPath, b, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *outPath)
	}

	// Gates run after the document is written so a failing run still leaves
	// its numbers on disk for forensics.
	failed := false
	if *maxRegression > 0 && *baselinePath != "" {
		failed = checkRegressions(out, *maxRegression) || failed
	}
	for _, spec := range minMetrics {
		failed = checkMinMetric(out.Benchmarks, spec) || failed
	}
	for _, spec := range maxMetrics {
		failed = checkMaxMetric(out.Benchmarks, spec) || failed
	}
	if failed {
		os.Exit(1)
	}
}

// checkRegressions reports (and returns true on) any shared benchmark whose
// ns/op regressed past the allowance. A negative reduction is a regression.
// On single-proc runs regressions warn instead of failing: with the
// benchmark's goroutines time-sliced onto one processor, ns/op swings far
// past any useful allowance between back-to-back runs of an unchanged tree.
func checkRegressions(out *api.BenchFile, allowPct float64) bool {
	singleProc := true
	for _, b := range out.Benchmarks {
		if b.Procs >= 2 {
			singleProc = false
			break
		}
	}
	failed := false
	for name, r := range out.ReductionsVsBaselinePct {
		if r.NsPerOpPct < -allowPct {
			if singleProc {
				fmt.Fprintf(os.Stderr, "benchjson: warning: %s regressed %.2f%% in ns/op (allowance %.0f%%, not gated on single-proc run)\n",
					name, -r.NsPerOpPct, allowPct)
				continue
			}
			fmt.Fprintf(os.Stderr, "benchjson: FAIL %s regressed %.2f%% in ns/op (allowance %.0f%%)\n",
				name, -r.NsPerOpPct, allowPct)
			failed = true
		}
	}
	return failed
}

// checkMinMetric enforces one Name:metric:floor spec against the parsed
// benchmarks. Gates on single-proc runs are skipped with a warning: they
// exist to hold parallel speedups, which one processor cannot exhibit.
func checkMinMetric(benchmarks []api.Benchmark, spec string) bool {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		fatal(fmt.Errorf("bad -min-metric %q, want Name:metric:floor", spec))
	}
	name, metric := parts[0], parts[1]
	floor, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		fatal(fmt.Errorf("bad -min-metric floor in %q: %w", spec, err))
	}
	for _, b := range benchmarks {
		if b.Name != name {
			continue
		}
		v, ok := b.Metrics[metric]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL %s did not report metric %q\n", name, metric)
			return true
		}
		if b.Procs < 2 {
			fmt.Fprintf(os.Stderr, "benchjson: skipping min-metric %s on single-proc run (%s=%.3f not gated)\n",
				spec, metric, v)
			return false
		}
		if v < floor {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL %s %s=%.3f below floor %.3f\n", name, metric, v, floor)
			return true
		}
		return false
	}
	fmt.Fprintf(os.Stderr, "benchjson: FAIL min-metric %s: benchmark not found in output\n", spec)
	return true
}

// checkMaxMetric enforces one Name:metric:ceiling spec against the parsed
// benchmarks. Unlike checkMinMetric it holds on single-proc runs: ceilings
// gate deterministic event counts (e.g. partition imbalance), which do not
// depend on the processors available.
func checkMaxMetric(benchmarks []api.Benchmark, spec string) bool {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		fatal(fmt.Errorf("bad -max-metric %q, want Name:metric:ceiling", spec))
	}
	name, metric := parts[0], parts[1]
	ceiling, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		fatal(fmt.Errorf("bad -max-metric ceiling in %q: %w", spec, err))
	}
	for _, b := range benchmarks {
		if b.Name != name {
			continue
		}
		v, ok := b.Metrics[metric]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL %s did not report metric %q\n", name, metric)
			return true
		}
		if v > ceiling {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL %s %s=%.3f above ceiling %.3f\n", name, metric, v, ceiling)
			return true
		}
		return false
	}
	fmt.Fprintf(os.Stderr, "benchjson: FAIL max-metric %s: benchmark not found in output\n", spec)
	return true
}

// shardsOf extracts the shard count from a /shards=N path segment, 0 when
// absent.
func shardsOf(name string) int {
	i := strings.Index(name, "shards=")
	if i < 0 {
		return 0
	}
	rest := name[i+len("shards="):]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		rest = rest[:j]
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return 0
	}
	return n
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}

func readFile(path string) (*api.BenchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f api.BenchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func parse(r *os.File) (*api.BenchFile, error) {
	out := &api.BenchFile{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			out.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			out.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			out.Benchmarks = append(out.Benchmarks, b)
		}
	}
	return out, sc.Err()
}

// parseLine parses one result line:
//
//	BenchmarkName[-P]  N  v1 unit1  v2 unit2  ...
//
// Units ending in /op map to the well-known fields; anything else is a
// custom metric keyed by its unit string.
func parseLine(line string) (api.Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return api.Benchmark{}, fmt.Errorf("malformed benchmark line: %q", line)
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	procs := 1
	// Strip the -GOMAXPROCS suffix if present.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
			procs = p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return api.Benchmark{}, fmt.Errorf("bad iteration count in %q: %w", line, err)
	}
	b := api.Benchmark{Name: name, Iterations: iters, Procs: procs, Shards: shardsOf(name)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return api.Benchmark{}, fmt.Errorf("bad value %q in %q: %w", fields[i], line, err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, nil
}

func reductions(base, cur []api.Benchmark) map[string]api.Reduction {
	byName := make(map[string]api.Benchmark, len(base))
	for _, b := range base {
		byName[b.Name] = b
	}
	out := map[string]api.Reduction{}
	for _, c := range cur {
		b, ok := byName[c.Name]
		if !ok {
			continue
		}
		out[c.Name] = api.Reduction{
			NsPerOpPct:     pctDrop(b.NsPerOp, c.NsPerOp),
			AllocsPerOpPct: pctDrop(b.AllocsPerOp, c.AllocsPerOp),
		}
	}
	return out
}

func pctDrop(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return round2((base - cur) / base * 100)
}

func round2(v float64) float64 {
	return float64(int64(v*100+sign(v)*0.5)) / 100
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}
