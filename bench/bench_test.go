package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nowlater/nowlater/internal/nlwire"
	"github.com/nowlater/nowlater/internal/policy"
	"github.com/nowlater/nowlater/internal/scenario"
	"github.com/nowlater/nowlater/internal/scenariogen"
	"github.com/nowlater/nowlater/internal/stats"
)

// The committed BENCHMARK.json is what `nlbench manifest` prints.
func TestManifestMatchesCommittedFile(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate with `bash bench/run.sh manifest > BENCHMARK.json`")
	}
}

func TestMetricNames(t *testing.T) {
	m := manifest()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, list := range [][]Metric{m.EndToEnd, m.PerLayer} {
		for _, x := range list {
			if !nameRE.MatchString(x.Name) {
				t.Errorf("metric %q uses characters outside [A-Za-z0-9_.-]", x.Name)
			}
		}
	}
	bad := m
	bad.PerLayer = append([]Metric{{"mac self", "s", "lower", nil}}, m.PerLayer...)
	if bad.Validate() == nil {
		t.Error("a metric name with a space passed Validate")
	}
	bad = m
	bad.PerLayer = append([]Metric{m.PerLayer[0]}, m.PerLayer...)
	if bad.Validate() == nil {
		t.Error("a duplicate metric name passed Validate")
	}
}

func specFingerprints(t *testing.T, specs []scenario.Spec) []uint64 {
	t.Helper()
	fps := make([]uint64, len(specs))
	for i, s := range specs {
		fp, err := scenario.Fingerprint(s)
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = fp
	}
	return fps
}

var generators = map[string]func(int64) []scenario.Spec{wFerry: FerrySpecs, wFleet: FleetSpecs}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	for name, gen := range generators {
		a, b, c := specFingerprints(t, gen(1)), specFingerprints(t, gen(1)), specFingerprints(t, gen(2))
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s %d: same seed gave spec %016x then %016x", name, i, a[i], b[i])
			}
			if a[i] == c[i] {
				t.Errorf("%s %d: seeds 1 and 2 gave the same spec %016x", name, i, a[i])
			}
		}
	}
}

func TestGeneratedSpecsValidate(t *testing.T) {
	for name, gen := range generators {
		for _, seed := range []int64{DefaultSeed, HeldOutSeed, 12345} {
			for _, s := range gen(seed) {
				if err := s.Validate(); err != nil {
					t.Errorf("%s seed %d %s: %v", name, seed, s.Name, err)
				}
			}
		}
	}
}

// A sample of generated scenarios passes the differential harness: the
// event-driven and lockstep runs agree, and the metamorphic transforms
// hold. The sample takes the cheapest scenarios of each kind: small
// batches with each fault, and the smallest swarm.
func TestGeneratedSampleVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the differential harness")
	}
	ferry := FerrySpecs(DefaultSeed)
	fleet := FleetSpecs(DefaultSeed)
	sample := []scenario.Spec{ferry[0], ferry[1], ferry[2], ferry[3], ferry[6], ferry[9], fleet[0]}
	for _, s := range sample {
		if err := scenariogen.Verify(s); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestTailPercentileEdges(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		got, err := tailPercentile(c.n)
		if err != nil || got != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", c.n, got, err, c.want)
		}
		if beyond := c.n - rank(got, c.n); beyond < tailBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, got, beyond)
		}
	}
	if _, err := tailPercentile(19); err == nil {
		t.Error("19 samples gave a tail")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40 … 1, unsorted input
	}
	d, err := summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Type-7 quantiles of 1…40: p50 20.5, p75 30.25.
	if d.N != 40 || d.TailP != 75 || math.Abs(d.P50-20.5) > 1e-9 || math.Abs(d.Tail-30.25) > 1e-9 {
		t.Fatalf("summarize = %+v, want n 40, p50 20.5, p75 30.25", d)
	}
	if xs[0] != 40 {
		t.Fatal("summarize reordered its input")
	}
	if _, err := summarizeAt(xs, 99); err == nil {
		t.Error("p99 of 40 samples gave a tail")
	}
	if d, err := summarizeAt(xs, 50); err != nil || d.TailP != 50 || d.Tail != d.P50 {
		t.Errorf("summarizeAt(p50) = %+v, %v", d, err)
	}
}

func TestSummarizeSet(t *testing.T) {
	xs := make([]float64, 16)
	for i := range xs {
		xs[i] = float64(16 - i)
	}
	d, err := summarizeSet(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Type-7 quantiles of 1…16: p50 8.5, p90 14.5.
	if d.N != 16 || d.TailP != 90 || math.Abs(d.P50-8.5) > 1e-9 || math.Abs(d.Tail-14.5) > 1e-9 {
		t.Fatalf("summarizeSet = %+v, want n 16, p50 8.5, p90 14.5", d)
	}
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestAttributeSyntheticStacks(t *testing.T) {
	known := map[string]bool{"mac": true, "core": true, "nlserver": true, "bench": true}
	const in = internalPrefix
	cases := []struct {
		stack []string
		want  string
	}{
		// stdlib frames count toward the innermost module frame
		{[]string{"runtime.memmove", "runtime.growslice", in + "mac.(*MAC).Transact", in + "link.(*Link).Step"}, "mac"},
		{[]string{"math.Log", in + "core.Scenario.Optimize", in + "policy.(*Engine).DecideContext"}, "core"},
		{[]string{"encoding/json.(*encodeState).marshal", in + "nlserver.(*Server).handleDecide", "net/http.(*conn).serve"}, "nlserver"},
		// the benchmark's own frames
		{[]string{"time.Now", "main.openLoop", "runtime.goexit"}, "bench"},
		{[]string{benchPackage + ".spin"}, "bench"},
		// no module frame at all
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.other"},
		{nil, "runtime.other"},
		// a module outside the reported list, and a sub-package path
		{[]string{in + "runner.Map.func1"}, "other"},
		{[]string{in + "scenariogen/testdata.X"}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack, known); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) float64 {
	x := 0.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

// A real CPU profile decodes, and the samples of a busy loop in this
// package are charged to "bench".
func TestSelfSecondsFromRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	self, err := selfSeconds(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if self["bench"] < 0.1 {
		t.Fatalf("bench self time %v s from a 0.4 s busy loop (all: %v)", self["bench"], self)
	}
	if _, err := selfSeconds([]byte("not a profile")); err == nil {
		t.Fatal("garbage decoded as a profile")
	}
}

func TestDecideQueryMix(t *testing.T) {
	const n = 2000
	qs := decideQueries(rand.New(rand.NewSource(1)), n)
	if len(qs) != n {
		t.Fatalf("%d queries, want %d", len(qs), n)
	}
	distinct := map[[4]float64]int{}
	out := 0
	for _, q := range qs {
		if err := q.Policy().Validate(); err != nil {
			t.Fatal(err)
		}
		distinct[[4]float64{q.D0M, q.SpeedMPS, q.MdataMB, q.Rho}]++
		if q.D0M > 400 {
			out++
		}
	}
	if want := int(math.Round(decideOutShare * n)); out != want {
		t.Errorf("%d out-of-grid queries, want %d", out, want)
	}
	repeats := n - len(distinct)
	if lo := int(decideHotShare*n) - decideHotSet; repeats < lo {
		t.Errorf("%d repeated queries, want at least %d", repeats, lo)
	}
	due := arrivals(rand.New(rand.NewSource(1)), n, 400)
	if !sort.SliceIsSorted(due, func(i, j int) bool { return due[i] < due[j] }) {
		t.Error("arrivals not in order")
	}
	if got := float64(n) / due[n-1].Seconds(); got < 360 || got > 440 {
		t.Errorf("arrival rate %v, want about 400", got)
	}
}

func TestCompareConfigValidate(t *testing.T) {
	dir := t.TempDir()
	tests := []struct {
		name    string
		config  CompareConfig
		wantErr error
	}{
		{"valid", CompareConfig{BaseDir: dir, CandidateDir: dir}, nil},
		{"missing base", CompareConfig{}, ErrBaseDirRequired},
		{"base not a directory", CompareConfig{BaseDir: filepath.Join(dir, "nope")}, ErrBaseDirMissing},
		{"candidate not a directory", CompareConfig{BaseDir: dir, CandidateDir: filepath.Join(dir, "nope")}, ErrCandidateDir},
		{"empty manifest path gets default", CompareConfig{BaseDir: dir}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.config.Validate()
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate() = %v, want %v", err, tt.wantErr)
			}
			if err == nil && tt.config.ManifestPath == "" {
				t.Error("Validate left ManifestPath empty")
			}
		})
	}
}

func TestCompareAppliesBounds(t *testing.T) {
	root := t.TempDir()
	manifestPath := filepath.Join(root, "BENCHMARK.json")
	b, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	writeSide := func(name string, runs int, scale float64) string {
		dir := filepath.Join(root, name)
		for _, w := range workloads {
			for seed := int64(1); seed <= int64(runs); seed++ {
				rep := &Report{Env: Env{Workload: w.Name, Seed: seed}, Correct: true, Attempted: 1, Metrics: map[string]Value{}}
				for _, m := range endToEnd {
					v := 100 * (1 + 0.01*float64(seed))
					if m.Name == "op_ms_p50" {
						v *= scale
					}
					rep.Metrics[m.Name] = Value{v, m.Unit}
				}
				if err := writeReport(filepath.Join(dir, fmt.Sprintf("%s%d.json", w.Name, seed)), rep); err != nil {
					t.Fatal(err)
				}
			}
		}
		return dir
	}
	base := writeSide("base", compareRuns, 1)
	same, slow := writeSide("same", compareRuns, 1.05), writeSide("slow", compareRuns, 1.5)
	var out bytes.Buffer
	cfg := CompareConfig{BaseDir: base, CandidateDir: same, ManifestPath: manifestPath}
	if err := Compare(cfg, &out); err != nil {
		t.Fatalf("a 5%% change failed the comparison: %v\n%s", err, out.String())
	}
	cfg.CandidateDir = slow
	if err := Compare(cfg, &out); err == nil {
		t.Fatalf("a 50%% slower op_ms_p50 passed the comparison\n%s", out.String())
	}
	cfg.CandidateDir = writeSide("short", compareRuns-1, 1)
	if err := Compare(cfg, &out); err == nil {
		t.Fatalf("%d runs per side passed the comparison", compareRuns-1)
	}
}

// The decide path end to end: an open loop on two connections against the
// in-process server, every answer equal to a direct engine decision.
func TestDecideOpenLoopAnswersMatchEngine(t *testing.T) {
	srv, err := startDecideServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.stop(); err != nil {
			t.Error(err)
		}
	}()
	rng := rand.New(rand.NewSource(3))
	p := &phase{rate: 400, queries: decideQueries(rng, 400)}
	p.due = arrivals(rng, len(p.queries), p.rate)
	openLoop(p, newClients(srv.url, 2), newTracer(), 0)
	if p.handlerCPUMS = srv.takeHandlerCPUMS(); len(p.handlerCPUMS) != len(p.queries) {
		t.Errorf("%d handler times for %d requests", len(p.handlerCPUMS), len(p.queries))
	}
	// The CPU timer runs on the goroutine that solves: the exact solves,
	// about ten times a table lookup, set the upper share of the handler
	// times.
	exact := float64(srv.engine.Stats().ExactFallbacks()) / float64(len(p.queries))
	med := stats.MustMedian(p.handlerCPUMS)
	if upper, err := stats.Quantile(p.handlerCPUMS, 1-exact/2); err != nil || !(upper > 4*med) {
		t.Errorf("handler CPU p%.0f %v ms against a median of %v ms (%.0f%% exact solves): the timer misses the solve",
			100*(1-exact/2), upper, med, 100*exact)
	}
	check, err := policy.NewEngine(srv.engine.Table(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range p.replies {
		if !r.ok() {
			t.Fatalf("request %d: status %d err %v", i, r.status, r.err)
		}
		want, err := check.Decide(p.queries[i].Policy())
		if err != nil {
			t.Fatal(err)
		}
		if w := nlwire.FromDecision(want); r.dec.DoptM != w.DoptM || r.dec.Utility != w.Utility {
			t.Fatalf("request %d: served %+v, direct %+v", i, r.dec, w)
		}
	}
	st, err := judge(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 0 || st.LatencyMS.N != len(p.queries) {
		t.Errorf("judge = %+v", st)
	}
}

// The closed loop keeps every connection busy for its window, and every
// request it sent has an answer equal to a direct engine decision.
func TestDecideClosedLoopAnswersMatchEngine(t *testing.T) {
	srv, err := startDecideServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.stop(); err != nil {
			t.Error(err)
		}
	}()
	p := &phase{queries: decideQueries(rand.New(rand.NewSource(4)), 1<<14)}
	closedLoop(p, newClients(srv.url, 2), 200*time.Millisecond, newTracer(), 0)
	if n := len(p.queries); n < 100 || n == 1<<14 || len(p.replies) != n {
		t.Fatalf("%d requests and %d replies in 200 ms", n, len(p.replies))
	}
	if got := len(srv.takeHandlerCPUMS()); got != len(p.queries) {
		t.Errorf("%d handler times for %d requests", got, len(p.queries))
	}
	check, err := policy.NewEngine(srv.engine.Table(), 0)
	if err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	if tally(o, []*phase{p}, 0, check); o.Failed != 0 || o.Attempted != len(p.queries) {
		t.Errorf("tally: attempted %d failed %d %v", o.Attempted, o.Failed, o.Failures)
	}
}

// On a capacity step above the highest passing rate only refusals (429)
// go uncounted: a stub server that answers some requests with a 400 fails
// the run.
func TestTallyCountsErrorsOnCapacitySteps(t *testing.T) {
	var n atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if n.Add(1)%4 == 0 {
			http.Error(w, "bad query", http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer stub.Close()
	rng := rand.New(rand.NewSource(5))
	step := &phase{rate: 2000, capacity: true, queries: decideQueries(rng, 200)}
	step.due = arrivals(rng, len(step.queries), step.rate)
	openLoop(step, newClients(stub.URL, 2), nil, 0)
	phases := []*phase{{rate: 400}, step}

	o := newOutcome()
	if degraded := tally(o, phases, 400, nil); degraded != 0 {
		t.Errorf("%d degraded answers from a stub that serves none", degraded)
	}
	if o.Attempted != 200 || o.Failed != 50 {
		t.Errorf("above the ceiling: attempted %d failed %d, want 200 and the 50 bad requests", o.Attempted, o.Failed)
	}
	o = newOutcome()
	tally(o, phases, 2000, nil)
	if o.Attempted != 200 || o.Failed != 200 {
		t.Errorf("at a passing rate: attempted %d failed %d, want every request failed", o.Attempted, o.Failed)
	}
}

// The thread CPU clock advances while the thread works and stands still
// while it sleeps.
func TestThreadCPUSeconds(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUSeconds()
	spin(100 * time.Millisecond)
	c1 := threadCPUSeconds()
	time.Sleep(100 * time.Millisecond)
	c2 := threadCPUSeconds()
	if busy, idle := c1-c0, c2-c1; !(busy > 0.02) || !(idle >= 0 && idle < 0.02) {
		t.Errorf("thread CPU: %v s over a 100 ms spin, %v s over a 100 ms sleep", busy, idle)
	}
}
