// Command perfbench is the repository benchmark. One process runs one
// workload: it builds the workload's inputs from --seed, measures for
// --seconds seconds, checks that the simulator's outputs are correct, and
// prints its metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (setup_s, cold_s,
// op_p50_ms, peak_rss_mb), measured with the observability
// registry off. Times are scaled to the machine's reference speed by the
// speed probe (speed.go); the readable report also prints them unscaled.
// With --trace 1 the same workload runs with the registry on and with
// spans around the benchmark's calls into each layer, and the metrics are
// the per-layer ones. Spans are written to
// .bench_out/spans-<workload>-seed<n>.json at exit.
//
// Workloads: fig2-paper, ctl-drain. See
// perfbench/DESIGN.md for why each exists and which layer metric should
// move which end-to-end metric.
//
// Run it through perfbench/run.sh, which builds it from source.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bestofboth/internal/experiment"
	"bestofboth/internal/obs"
)

// defaultSeed is the seed the recorded expected values belong to.
const defaultSeed = 42

// outDir holds result records and span dumps, relative to the working
// directory (the repository root).
const outDir = ".bench_out"

// Set-up repetitions per run; setup_s is their median. ctl-drain's set-up
// takes a tenth of a second, so it repeats more often.
const (
	fig2SetupReps = 6
	ctlSetupReps  = 21
)

// metric is one named value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cold_s", "s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics every traced run reports. A layer
// the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"topology.generate_s", "s"},
	{"experiment.select_targets_s", "s"},
	{"experiment.template_s", "s"},
	{"experiment.snapshot_ms", "ms"},
	{"experiment.restore_ms", "ms"},
	{"experiment.restore_alloc_mb", "MB"},
	{"experiment.probe_s", "s"},
	{"experiment.snapshot_hit_ratio", "ratio"},
	{"experiment.converge_s", "s"},
	{"core.deploy_ms", "ms"},
	{"dataplane.forward_ns", "ns"},
	{"dataplane.fib_lookups", "count"},
	{"dataplane.fib_digest_ms", "ms"},
	{"netsim.events", "count"},
	{"netsim.events_per_s", "1/s"},
	{"bgp.updates_sent", "count"},
	{"bgp.route_digest_ms", "ms"},
	{"bgp.route_digest_mb", "MB"},
	{"scenario.apply_ms", "ms"},
	{"traffic.fold_ms", "ms"},
	{"ctlplane.stateof_ms", "ms"},
	{"ctlplane.dryrun_unaccounted_ms", "ms"},
	{"collector.archive_records", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
}

// bench is the state of one run.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	nproc    int

	tr    *tracer       // nil unless traced
	reg   *obs.Registry // nil unless traced
	probe *speedProbe

	attempted, failed int
	values            map[string]float64 // end-to-end and per-layer values by name
	digests           map[string]string  // output fingerprints, printed for cross-commit comparison
}

// op counts one attempted operation; a non-nil error fails it.
func (b *bench) op(err error) error {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Printf("FAIL operation: %v\n", err)
	}
	return err
}

// check counts one output check.
func (b *bench) check(name string, ok bool, detail string) {
	b.attempted++
	if ok {
		fmt.Printf("check %-40s ok\n", name)
		return
	}
	b.failed++
	fmt.Printf("check %-40s FAILED: %s\n", name, detail)
}

// checkRecorded compares an output to its recorded value at the default
// seed; at any other seed there is no recorded value and the invariant
// checks carry the run.
func (b *bench) checkRecorded(name, got, want string) {
	if b.seed != defaultSeed {
		return
	}
	b.check(name, got == want, fmt.Sprintf("got %s, recorded %s", got, want))
}

// report prints one named measurement with its unit and sample count.
// Names from endToEnd and perLayer also feed the final JSON line.
func (b *bench) report(name string, v float64, unit string, n int) {
	b.values[name] = v
	fmt.Printf("metric %-32s %16.4f %-6s n=%d\n", name, v, unit, n)
}

// skip prints a measurement the run holds too few samples for.
func skip(name, why string) {
	fmt.Printf("metric %-32s %16s        (%s)\n", name, "n/a", why)
}

func main() {
	workload := flag.String("workload", "", "workload to run: fig2-paper, ctl-drain")
	seed := flag.Int64("seed", defaultSeed, "workload seed; the recorded expected values belong to seed 42")
	seconds := flag.Float64("seconds", 20, "how long the steady-state phase measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	flag.Parse()
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		nproc:    nproc,
		values:   map[string]float64{},
		digests:  map[string]string{},
	}
	if *trace == 1 {
		b.tr = newTracer()
		b.reg = obs.NewRegistry()
	}
	probe, err := newSpeedProbe()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b.probe = probe
	env := environment(nproc)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", b.workload, b.seed, *seconds, *trace)
	for _, k := range sortedKeys(env) {
		fmt.Printf("env %-14s %s\n", k, env[k])
	}

	steal := stealSeconds()
	err = runWorkload(b)
	if err != nil {
		b.attempted++
		b.failed++
		fmt.Printf("FAIL workload: %v\n", err)
	} else {
		b.reportProbe()
		// The probe's working set stays resident for the whole run, so
		// it adds exactly its size to the peak.
		peak := float64(experiment.ReadMemFootprint().PeakRSSBytes) - float64(len(probe.mem))
		b.report("peak_rss_mb", peak/1e6, "MB", 1)
	}
	probe.close()
	reportRusage(steal)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, k := range sortedKeys(b.digests) {
		fmt.Printf("digest %-30s %s\n", k, b.digests[k])
	}
	fmt.Printf("metric %-32s %16.4f %-6s n=%d\n", "error_rate", float64(b.failed)/float64(b.attempted), "ratio", b.attempted)

	list := endToEnd
	if b.tr != nil {
		list = perLayer
		b.printOverhead(env)
		if err := b.tr.writeFile(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", b.workload, b.seed))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, m := range list {
		res.Metrics[m.name] = metric{Value: b.values[m.name], Unit: m.unit}
	}
	if err := b.writeRecord(env, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing record: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

var workloads = map[string]func(*bench) error{
	"fig2-paper": runFig2,
	"ctl-drain":  runCtl,
}

// record is what a run leaves in .bench_out for later comparison: the
// environment it ran in, its values, and its output digests.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Env      map[string]string  `json:"env"`
	Result   result             `json:"result"`
	Values   map[string]float64 `json:"values"`
	Digests  map[string]string  `json:"digests"`
}

func (b *bench) recordPath(traced bool) string {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%s.json", b.workload, b.seed, kind))
}

func (b *bench) writeRecord(env map[string]string, res result) error {
	rec := record{
		Workload: b.workload, Seed: b.seed, Traced: b.tr != nil, Env: env,
		Result: res, Values: b.values, Digests: b.digests,
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(b.recordPath(b.tr != nil), append(data, '\n'), 0o644)
}

// printOverhead reports tracing overhead: each end-to-end value of this
// traced run minus the same value from the last untraced run of the same
// workload and seed, when one exists and measured the same source.
func (b *bench) printOverhead(env map[string]string) {
	data, err := os.ReadFile(b.recordPath(false))
	if err != nil {
		fmt.Println("trace overhead: n/a (no untraced record for this workload and seed)")
		return
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		fmt.Printf("trace overhead: n/a (%v)\n", err)
		return
	}
	if rec.Env["source"] != env["source"] {
		fmt.Println("trace overhead: n/a (the untraced record measured other source)")
		return
	}
	for _, m := range endToEnd {
		base, ok := rec.Values[m.name]
		traced, ok2 := b.values[m.name]
		if !ok || !ok2 || base == 0 {
			continue
		}
		fmt.Printf("trace overhead %-24s %+12.4f %-4s (%+.1f%% of untraced %.4f)\n",
			m.name, traced-base, m.unit, 100*(traced-base)/base, base)
	}
}

// environment records what a result must not be compared across without
// saying so: CPU, processor counts, toolchain, and the source under test.
func environment(nproc int) map[string]string {
	env := map[string]string{
		"cpu":        cpuModel(),
		"nproc":      fmt.Sprint(nproc),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"source":     sourceDigest(),
		"commit":     "unknown (not a git checkout)",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest fingerprints the Go sources and module files under the
// working directory, standing in for a commit hash where there is none.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// timeSetup runs f reps times and reports the median as setup_s.
func (b *bench) timeSetup(reps int, f func() error) error {
	mark := b.probe.mark()
	var secs []float64
	for i := 0; i < reps; i++ {
		wall, err := b.probe.timed(f)
		if err != nil {
			return err
		}
		secs = append(secs, wall/1e9)
	}
	b.reportTime("setup_s", "s", median(secs), reps, mark)
	return nil
}

// reportTime reports an end-to-end time as measured, under wall.<name>,
// and scaled to the reference speed by the probes taken since mark, under
// name.
func (b *bench) reportTime(name, unit string, wall float64, n, mark int) {
	scale := b.probe.scaleSince(mark)
	b.report("wall."+name, wall, unit, n)
	b.report(name, wall*scale, unit, n)
	fmt.Printf("       %-32s scale %.4f from %d probes\n", name, scale, b.probe.mark()-mark)
}

// reportProbe prints the speed probe's median and quartiles over the run.
func (b *bench) reportProbe() {
	p := b.probe
	fmt.Printf("probe walk %.3f ms (p25 %.3f, p75 %.3f), hash %.3f ms, n=%d\n",
		median(p.walks)/1e6, quantile(p.walks, 0.25)/1e6, quantile(p.walks, 0.75)/1e6,
		median(p.hashes)/1e6, len(p.walks))
}

// reportRusage prints the process's CPU time, page faults and context
// switches, and the time the hypervisor took the VM's CPUs away since
// stealStart, which tell a slow machine from a slow program.
func reportRusage(stealStart float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return
	}
	fmt.Printf("rusage user %.2f s, sys %.2f s, minor faults %d, major faults %d, voluntary switches %d, involuntary %d, steal (all CPUs) %.2f s\n",
		float64(ru.Utime.Nano())/1e9, float64(ru.Stime.Nano())/1e9, ru.Minflt, ru.Majflt, ru.Nvcsw, ru.Nivcsw, stealSeconds()-stealStart)
}

// stealSeconds reads the steal time of all CPUs from /proc/stat; 0 where
// it is not available.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// memDelta is a runtime.MemStats difference over one phase.
type memDelta struct {
	start runtime.MemStats
}

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.start)
	return d
}

// stop returns allocated megabytes and completed GC cycles since start.
func (d *memDelta) stop() (allocMB float64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-d.start.TotalAlloc) / 1e6, ms.NumGC - d.start.NumGC
}

// counters reads every counter and histogram of the registry by name:
// counters as their value, histograms as their sum and count.
func counters(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, m := range reg.Snapshot() {
		switch m.Kind {
		case "histogram":
			out[m.Name+".sum"] = m.Sum
			out[m.Name+".count"] = float64(m.Count)
		default:
			out[m.Name] = m.Value
		}
	}
	return out
}

// delta returns after[name] - before[name].
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}
