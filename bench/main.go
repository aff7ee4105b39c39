// Command nlbench is the repository benchmark. It runs one named workload
// from a seed, measures it for a fixed time, checks the program's outputs
// and prints every metric by name and unit; the last line of its standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is profiled and traced and the metrics are the per-layer ones. Each
// run also writes a full report (metrics, environment, tail percentiles)
// under .bench_build/reports for the comparator:
//
//	nlbench --workload ferry --seed 1 --seconds 30 --trace 0
//	nlbench compare -a BASE_DIR -b CANDIDATE_DIR
//	nlbench manifest > BENCHMARK.json
//
// Build and run it through bench/run.sh from the repository root.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/nowlater/nowlater/internal/stats"
)

// outDir holds reports and span files, relative to the working directory.
const outDir = ".bench_build"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nlbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "manifest":
			b, err := manifestJSON()
			if err != nil {
				return err
			}
			_, err = out.Write(b)
			return err
		case "compare":
			return compareMain(args[1:], out)
		}
	}
	fs := flag.NewFlagSet("nlbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: ferry | fleet | decide")
	seed := fs.Int64("seed", DefaultSeed, "input seed")
	seconds := fs.Int("seconds", RunSeconds, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	runner, ok := runners[*workload]
	if !ok {
		return fmt.Errorf("--workload %q: want ferry, fleet or decide", *workload)
	}
	// One P: the workloads are single streams (one goroutine per scenario
	// stream; the decide client and server take turns), and a second P
	// would sit idle and run the collector's idle mark workers and
	// spinning threads, which doubled a ferry scenario's process CPU time
	// and made it vary from run to run.
	runtime.GOMAXPROCS(1)
	cfg := runConfig{Seed: *seed, Measure: time.Duration(*seconds) * time.Second}
	if *trace == 1 {
		cfg.Tracer = newTracer()
	}
	rep, err := measure(runner, cfg)
	if err != nil {
		return err
	}
	rep.Env = environment(*workload, *seed, *seconds, *trace == 1)
	name := fmt.Sprintf("%s-seed%d-trace%d-%d", *workload, *seed, *trace, time.Now().UnixNano())
	if cfg.Tracer != nil {
		if err := cfg.Tracer.WriteFile(filepath.Join(outDir, "spans", name+".jsonl")); err != nil {
			return err
		}
	}
	if err := writeReport(filepath.Join(outDir, "reports", name+".json"), rep); err != nil {
		return err
	}
	return printResult(out, rep, *trace == 1)
}

// runConfig is what a workload runner gets.
type runConfig struct {
	Seed    int64
	Measure time.Duration
	// Tracer is non-nil on a traced run.
	Tracer *Tracer
}

// outcome is what a workload runner measured.
type outcome struct {
	// Setup holds each repetition of the set-up in process CPU seconds,
	// SetupWall the same repetitions in wall seconds.
	Setup, SetupWall  []float64
	Attempted, Failed int
	Failures          []string
	Metrics           map[string]float64
	Details           map[string]any
	// afterProfile, when set, derives metrics from the module self times.
	afterProfile func(self map[string]float64)

	cpuStart, cpuEnd    float64
	memStart, memEnd    runtime.MemStats
	profile             bytes.Buffer
	profiling, profiled bool
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]float64{}, Details: map[string]any{}}
}

// addSetup records one repetition of a set-up that began at process CPU
// time cpu0 and wall time start.
func (o *outcome) addSetup(cpu0 float64, start time.Time) {
	o.Setup = append(o.Setup, processCPUSeconds()-cpu0)
	o.SetupWall = append(o.SetupWall, time.Since(start).Seconds())
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Failures) < 20 {
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

// beginMeasure marks the start of the measured phase: CPU time and memory
// statistics are taken from here, and a traced run starts its profile.
func (o *outcome) beginMeasure(cfg runConfig) error {
	runtime.GC()
	runtime.ReadMemStats(&o.memStart)
	o.cpuStart = processCPUSeconds()
	if cfg.Tracer != nil {
		if err := pprof.StartCPUProfile(&o.profile); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		o.profiling = true
	}
	return nil
}

// endMeasure marks the end of the measured phase.
func (o *outcome) endMeasure() {
	if o.profiling {
		pprof.StopCPUProfile()
		o.profiling, o.profiled = false, true
	}
	o.cpuEnd = processCPUSeconds()
	runtime.ReadMemStats(&o.memEnd)
}

// cpuSeconds is the process CPU time of the measured phase.
func (o *outcome) cpuSeconds() float64 { return o.cpuEnd - o.cpuStart }

// workloadRunner sets a workload up, measures it and checks its outputs.
type workloadRunner func(cfg runConfig) (*outcome, error)

var runners = map[string]workloadRunner{
	wFerry:  runFerry,
	wFleet:  runFleet,
	wDecide: runDecide,
}

// Report is one run's full record, read back by the comparator.
type Report struct {
	Env       Env              `json:"env"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	FailRatio float64          `json:"fail_ratio"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]Value `json:"metrics"`
	Details   map[string]any   `json:"details"`
}

// Value is a metric reading with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Env identifies where and what a report measured.
type Env struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func environment(workload string, seed int64, seconds int, traced bool) Env {
	commit := os.Getenv("NLBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return Env{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: cpuModel(), GoVersion: runtime.Version(), Commit: commit,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// measure runs a workload and assembles its report.
func measure(runner workloadRunner, cfg runConfig) (*Report, error) {
	o, err := runner(cfg)
	if err != nil {
		return nil, err
	}
	if o.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	o.Metrics["setup_s"] = stats.MustMedian(o.Setup)
	o.Details["setup_runs_cpu_s"] = o.Setup
	o.Details["setup_runs_wall_s"] = o.SetupWall
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.Metrics["runtime.max_rss_mb"] = rss
	if cfg.Tracer != nil {
		if err := layerMetrics(o); err != nil {
			return nil, err
		}
	}
	rep := &Report{
		Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed,
		FailRatio: float64(o.Failed) / float64(o.Attempted),
		Failures:  o.Failures, Metrics: map[string]Value{}, Details: o.Details,
	}
	units := map[string]string{}
	for _, m := range append(append([]Metric{}, endToEnd...), perLayer()...) {
		units[m.Name] = m.Unit
	}
	for name, v := range o.Metrics {
		unit, ok := units[name]
		if !ok {
			return nil, fmt.Errorf("metric %s is not in the manifest", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
		rep.Metrics[name] = Value{v, unit}
	}
	return rep, nil
}

// layerMetrics adds the per-layer numbers every traced run reports: module
// self times from the CPU profile and the Go runtime's memory counters.
// Counters a workload does not touch read 0.
func layerMetrics(o *outcome) error {
	if !o.profiled {
		return errors.New("traced run took no CPU profile")
	}
	self, err := selfSeconds(o.profile.Bytes())
	if err != nil {
		return err
	}
	for _, m := range selfModules {
		o.Metrics[m+".self_s"] = self[m]
	}
	o.Metrics["runtime.other_s"] = self["runtime.other"]
	var total float64
	for _, v := range self {
		total += v
	}
	share := map[string]float64{}
	for m, v := range self {
		share[m] = math.Round(1000*v/total) / 1000
	}
	o.Details["cpu_share"] = share
	if o.afterProfile != nil {
		o.afterProfile(self)
	}
	o.Metrics["runtime.alloc_mb"] = float64(o.memEnd.TotalAlloc-o.memStart.TotalAlloc) / 1e6
	o.Metrics["runtime.gc_cycles"] = float64(o.memEnd.NumGC - o.memStart.NumGC)
	o.Metrics["runtime.gc_pause_ms"] = float64(o.memEnd.PauseTotalNs-o.memStart.PauseTotalNs) / 1e6
	for _, m := range perLayer() {
		if _, ok := o.Metrics[m.Name]; !ok {
			o.Metrics[m.Name] = 0
		}
	}
	return nil
}

// printResult writes the human-readable summary and, last, the result
// line with the end-to-end or the per-layer metrics.
func printResult(out io.Writer, rep *Report, traced bool) error {
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "workload %s seed %d: %d attempted, %d failed (fail_ratio %g), correct %v\n",
		rep.Env.Workload, rep.Env.Seed, rep.Attempted, rep.Failed, rep.FailRatio, rep.Correct)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	fmt.Fprintf(w, "env: GOMAXPROCS=%d nproc=%d cpu=%q %s commit=%s\n",
		rep.Env.GOMAXPROCS, rep.Env.NumCPU, rep.Env.CPU, rep.Env.GoVersion, rep.Env.Commit)
	keys := make([]string, 0, len(rep.Details))
	for k := range rep.Details {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, err := json.Marshal(rep.Details[k])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %s: %s\n", k, b)
	}
	list := endToEnd
	if traced {
		list = perLayer()
	}
	metrics := map[string]Value{}
	for _, m := range list {
		v, ok := rep.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		metrics[m.Name] = v
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.Name, v.Value, v.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

func writeReport(path string, rep *Report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// processCPUSeconds is the user plus system CPU time of this process.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM in /proc/self/status")
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
