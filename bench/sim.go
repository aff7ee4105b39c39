package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/nowlater/nowlater/internal/link"
	"github.com/nowlater/nowlater/internal/mac"
	"github.com/nowlater/nowlater/internal/scenario"
	"github.com/nowlater/nowlater/internal/stats"
)

// DefaultSeed is the seed a run uses when none is given; HeldOutSeed is
// the second seed whose expected fingerprints are committed.
const (
	DefaultSeed = 1
	HeldOutSeed = 7
)

// setupRuns is how many times a run repeats its set-up, each on a collected
// heap; setup_s is the median. The simulation set-ups take a tenth of a
// second or less, so they repeat more often than decide's table build.
const (
	setupRuns    = 5
	simSetupRuns = 25
)

// scenarioBudget is the process CPU time a scenario spends in each
// measured pass: a scenario cheaper than this runs again in the same pass.
const scenarioBudget = 0.1

// expectedJSON pins the combined result fingerprint of each simulation
// workload at DefaultSeed and HeldOutSeed: workload → seed → hex.
//
//go:embed expected.json
var expectedJSON []byte

func expectedFingerprint(workload string, seed int64) (string, bool, error) {
	var pins map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &pins); err != nil {
		return "", false, fmt.Errorf("expected.json: %w", err)
	}
	fp, ok := pins[workload][strconv.FormatInt(seed, 10)]
	return fp, ok, nil
}

// simWorkload is a closed loop over a generated set of scenarios.
type simWorkload struct {
	name string
	gen  func(seed int64) []scenario.Spec
	// tables are the platforms whose policy tables set-up builds.
	tables []string
	check  func(spec scenario.Spec, res scenario.Result) error
	// work measures what one scenario accomplished, in workUnit.
	work     func(res scenario.Result) float64
	workUnit string
}

func runFerry(cfg runConfig) (*outcome, error) {
	return runSim(simWorkload{
		name: wFerry, gen: FerrySpecs, check: checkFerry,
		tables:   []string{scenario.PlatformQuad, scenario.PlatformPlane},
		work:     func(res scenario.Result) float64 { return res.Transfers[0].DeliveredMB() },
		workUnit: "delivered MB",
	}, cfg)
}

func runFleet(cfg runConfig) (*outcome, error) {
	return runSim(simWorkload{
		name: wFleet, gen: FleetSpecs, check: checkFleet,
		work:     func(res scenario.Result) float64 { return res.DurationS },
		workUnit: "simulated seconds",
	}, cfg)
}

// layerCounters accumulates the public counters of the simulation layers
// over a traced run.
type layerCounters struct {
	exchanges, attempted, delivered, dropped int64
	airtimeS, outageS                        float64
	events                                   uint64
	peakPending                              int
	stepped, elided                          int64
	deliveredBytes, retransmitted            int64
	requests, served, expired                int
}

func (c *layerCounters) tracer() link.Tracer {
	return func(_ float64, _ link.Geometry, ex mac.Exchange) {
		c.exchanges++
		c.attempted += int64(ex.Attempted)
		c.delivered += int64(ex.Delivered)
		c.dropped += int64(ex.Dropped)
		c.airtimeS += ex.AirtimeSeconds
	}
}

func (c *layerCounters) add(rt *scenario.Runtime, res scenario.Result) {
	st := rt.Stats()
	c.events += st.EventsProcessed
	c.peakPending = max(c.peakPending, st.PeakPendingEvents)
	c.stepped += st.SubTicksStepped
	c.elided += st.SubTicksElided
	c.outageS += rt.Link().OutageSeconds
	for _, tr := range res.Transfers {
		c.deliveredBytes += tr.DeliveredBytes
		c.retransmitted += tr.RetransmittedBytes
	}
	for _, r := range res.Requests {
		c.requests++
		if r.Served {
			c.served++
		} else {
			c.expired++
		}
	}
}

// runSim sets a scenario set up (generate, resolve, build tables) several
// times, runs a warm-up pass that checks every result, then links and runs
// its scenarios in order, pass after pass, for the measured time — at
// least one whole pass. Every measured run must reproduce its scenario's
// warm-up fingerprint.
func runSim(w simWorkload, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var (
		specs  []scenario.Spec
		progs  []*scenario.Program
		tables *scenario.TableCache
	)
	for i := 0; i < simSetupRuns; i++ {
		runtime.GC()
		cpu0, start := processCPUSeconds(), time.Now()
		specs = w.gen(cfg.Seed)
		t := time.Now()
		var err error
		if progs, err = scenario.ResolveAll(specs); err != nil {
			return nil, err
		}
		resolveS := time.Since(t).Seconds()
		tables = scenario.NewTableCache()
		for _, p := range w.tables {
			if _, err := tables.Engine(p); err != nil {
				return nil, err
			}
		}
		o.addSetup(cpu0, start)
		o.Metrics["scenario.resolve_s"] = resolveS
	}
	buildS := tables.Stats().BuildWallS

	n := len(progs)
	cpuS := make([][]float64, n)
	simS := make([]float64, n)
	works := make([]float64, n)
	fps := make([]uint64, n)
	var counters layerCounters
	var workTotal float64
	var id int64
	// run links and runs scenario i once and returns its process CPU
	// seconds. The warm-up run checks the result and records its
	// fingerprint; every later run must reproduce it. tr is nil outside
	// the measured phase of a traced run.
	run := func(i int, warm bool, tr *Tracer) (float64, bool) {
		o.Attempted++
		id++
		// Each scenario starts on a collected heap, so its time does not
		// depend on what the scenario before it left behind.
		runtime.GC()
		cpu0, t0 := processCPUSeconds(), time.Now()
		rt, err := scenario.LinkWithOptions(progs[i], scenario.Options{Tables: tables})
		if err != nil {
			o.fail("%s: link: %v", specs[i].Name, err)
			return 0, false
		}
		tr.Record(id, "scenario.link", t0)
		if tr != nil {
			rt.Link().SetTracer(counters.tracer())
		}
		t1 := time.Now()
		res, err := rt.Run()
		tr.Record(id, "scenario.run", t1)
		el := processCPUSeconds() - cpu0
		if err != nil {
			o.fail("%s: run: %v", specs[i].Name, err)
			return 0, false
		}
		if tr != nil {
			counters.add(rt, res)
		}
		fp := scenario.ResultFingerprint(res)
		switch {
		case warm:
			simS[i], works[i], fps[i] = res.DurationS, w.work(res), fp
			if err := w.check(specs[i], res); err != nil {
				o.fail("%s: %v", specs[i].Name, err)
			}
		case fp != fps[i]:
			o.fail("%s: run %d result %016x differs from the warm-up run %016x", specs[i].Name, id, fp, fps[i])
		default:
			workTotal += w.work(res)
		}
		return el, true
	}
	// The warm-up pass checks every result; after it the heap, the
	// policy caches and the allocator's free lists are in the state the
	// measured passes share.
	for i := range progs {
		run(i, true, nil)
	}

	if err := o.beginMeasure(cfg); err != nil {
		return nil, err
	}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < cfg.Measure; pass++ {
		for i := range progs {
			if pass > 0 && time.Since(start) >= cfg.Measure {
				break
			}
			// A cheap scenario repeats within the pass until it has spent
			// scenarioBudget, so the small batches that set the median get
			// as many samples as they need to settle.
			for spent := 0.0; spent < scenarioBudget; {
				el, ok := run(i, false, cfg.Tracer)
				if !ok {
					break
				}
				cpuS[i] = append(cpuS[i], el)
				spent += el
			}
		}
	}
	o.endMeasure()

	// A scenario's time is the median of its measured runs; the set's
	// median and tail then rest on one number per scenario, whatever the
	// number of passes.
	times := make([]float64, 0, n)
	var timeSum, simSum, work float64
	for i := range cpuS {
		if len(cpuS[i]) == 0 {
			continue
		}
		m := stats.MustMedian(cpuS[i])
		times = append(times, m*1000)
		timeSum += m
		simSum += simS[i]
		work += works[i]
	}
	d, err := summarizeSet(times)
	if err != nil {
		return nil, err
	}
	o.Metrics["op_ms_p50"] = d.P50
	o.Metrics["op_ms_tail"] = d.Tail
	o.Metrics["work_per_cpu_s"] = work / timeSum
	o.Details["op"] = "one scenario: Link + Run, process CPU ms; per-scenario median over the measured runs"
	o.Details["op_ms"] = d
	o.Details["scenario_ms"] = times
	o.Details["scenario_runs"] = lens(cpuS)
	o.Details["work_per_cpu_s_whole_run"] = workTotal / o.cpuSeconds()
	o.Details["sim_s_per_cpu_s"] = simSum / timeSum
	o.Details["work"] = w.workUnit

	h := fnv.New64a()
	for _, fp := range fps {
		fmt.Fprintf(h, "%016x\n", fp)
	}
	combined := fmt.Sprintf("%016x", h.Sum64())
	o.Details["fingerprint"] = combined
	want, pinned, err := expectedFingerprint(w.name, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if pinned && want != combined {
		for i := 0; i < n; i++ {
			o.fail("%s: combined fingerprint %s, expected %s", specs[i].Name, combined, want)
		}
	}
	o.Details["fingerprint_pinned"] = pinned

	if cfg.Tracer != nil {
		ts := tables.Stats()
		var pol struct{ req, hits, exact, degraded uint64 }
		for _, p := range w.tables {
			eng, err := tables.Engine(p)
			if err != nil {
				return nil, err
			}
			st := eng.Stats()
			pol.req += st.Requests
			pol.hits += st.CacheHits
			pol.exact += st.ExactFallbacks()
			pol.degraded += st.Degraded
		}
		c := counters
		m := o.Metrics
		m["scenario.link_s"] = cfg.Tracer.Total("scenario.link")
		m["scenario.run_s"] = cfg.Tracer.Total("scenario.run")
		m["scenario.table_builds"] = float64(ts.Builds)
		m["scenario.table_hits"] = float64(ts.Hits)
		m["scenario.table_build_s"] = buildS
		m["mac.exchanges"] = float64(c.exchanges)
		m["mac.subframes_attempted"] = float64(c.attempted)
		m["mac.subframes_delivered"] = float64(c.delivered)
		m["mac.subframes_dropped"] = float64(c.dropped)
		m["mac.delivery_ratio"] = ratio(float64(c.delivered), float64(c.attempted))
		m["mac.airtime_s"] = c.airtimeS
		m["link.outage_s"] = c.outageS
		m["transport.retransmit_ratio"] = ratio(float64(c.retransmitted), float64(c.deliveredBytes))
		m["sim.events"] = float64(c.events)
		m["sim.peak_pending"] = float64(c.peakPending)
		m["autopilot.subticks_stepped"] = float64(c.stepped)
		m["autopilot.subticks_elided"] = float64(c.elided)
		m["trajopt.served_ratio"] = ratio(float64(c.served), float64(c.requests))
		m["trajopt.expired"] = float64(c.expired)
		m["policy.cache_hit_ratio"] = ratio(float64(pol.hits), float64(pol.req))
		m["policy.exact_fallbacks"] = float64(pol.exact)
		m["policy.degraded_ratio"] = ratio(float64(pol.degraded), float64(pol.req))
		o.afterProfile = func(self map[string]float64) {
			m["mac.ns_per_exchange"] = ratio(self["mac"]*1e9, float64(c.exchanges))
			m["autopilot.ns_per_subtick"] = ratio((self["autopilot"]+self["uav"])*1e9, float64(c.stepped))
		}
	}
	return o, nil
}

// lens returns the length of each slice.
func lens(xss [][]float64) []int {
	out := make([]int, len(xss))
	for i, xs := range xss {
		out[i] = len(xs)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkFerry checks one ferry mission's result against what the Spec
// guarantees: a decision that ships the ferry no farther than d0, a
// reliable batch delivered in full whenever it completed, completion for
// every mission whose relay was not killed, and a reroute to the backup
// when it was.
func checkFerry(spec scenario.Spec, res scenario.Result) error {
	if len(res.Transfers) != 1 {
		return fmt.Errorf("%d transfer results, want 1", len(res.Transfers))
	}
	tr, want := res.Transfers[0], spec.Transfers[0]
	if !(tr.D0M > 0) || tr.DoptM < 0 || tr.DoptM > tr.D0M {
		return fmt.Errorf("decision d0 %v dopt %v out of range", tr.D0M, tr.DoptM)
	}
	killed := false
	for _, line := range spec.Chaos {
		killed = killed || strings.HasPrefix(line, "vehicle fail relay")
	}
	if math.IsInf(tr.CompletionS, 1) {
		return fmt.Errorf("batch did not complete (killed relay %v, rerouted %v)", killed, tr.Rerouted)
	}
	// A rerouted batch may deliver up to one A-MPDU more than its size:
	// the retry is enqueued behind the frames the primary attempt left
	// queued, and the batch completes on whole A-MPDU exchanges.
	size := int64(want.SizeMB * 1e6)
	slack := int64(0)
	if tr.Rerouted {
		p := mac.DefaultParams()
		slack = int64(p.MaxAggregation * p.MPDUPayloadBytes)
	}
	switch got := tr.DeliveredBytes; {
	case tr.Rerouted && !killed:
		return fmt.Errorf("rerouted to %s without a relay kill", tr.To)
	case got < size || got > size+slack:
		return fmt.Errorf("delivered %d bytes of %d (rerouted %v)", got, size, tr.Rerouted)
	}
	return nil
}

// checkFleet checks one fleet scenario: every Poisson request accounted
// for, served ones inside their deadline, every scripted kill at its
// exact time and at least one request served.
func checkFleet(spec scenario.Spec, res scenario.Result) error {
	if got, want := len(res.Requests), spec.Requests.Poisson.Count; got != want {
		return fmt.Errorf("%d request results, want %d", got, want)
	}
	served := 0
	for _, r := range res.Requests {
		if r.Served {
			served++
			if r.CompletionS > r.DeadlineS {
				return fmt.Errorf("request %s served at %v after deadline %v", r.ID, r.CompletionS, r.DeadlineS)
			}
		}
	}
	if served == 0 {
		return fmt.Errorf("no request served")
	}
	kills := map[string]float64{}
	for _, line := range spec.Chaos {
		f := strings.Fields(line)
		t, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return err
		}
		kills[f[2]] = t
	}
	for _, v := range res.Vehicles {
		t, scripted := kills[v.ID]
		switch {
		case scripted && (!v.Failed || v.FailedAtS != t):
			return fmt.Errorf("vehicle %s: failed %v at %v, scripted at %v", v.ID, v.Failed, v.FailedAtS, t)
		case !scripted && v.Failed:
			return fmt.Errorf("vehicle %s failed without a scripted kill", v.ID)
		}
	}
	return nil
}
