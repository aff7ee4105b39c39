package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
)

// Workload names.
const (
	wFerry  = "ferry"
	wFleet  = "fleet"
	wDecide = "decide"
)

// RunSeconds is how long one run measures.
const RunSeconds = 30

// Workload is one entry of the manifest's workload list.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Metric is one entry of the manifest's metric lists. Bound is set only on
// end-to-end metrics: the share of the parent's median by which the metric
// may worsen before a change counts as a regression.
type Metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// Manifest is BENCHMARK.json.
type Manifest struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

var workloads = []Workload{
	{wFerry, "ship-then-transmit missions with 1-120 MB reliable batches: the MAC, link and channel do the work, and batch size spreads it from p50 to tail"},
	{wFleet, "a looped-route swarm of 150 to 1500 quads plus joint-planner pickups: engine, autopilot and trajopt do the work while the MAC idles"},
	{wDecide, "closed-loop, then open-loop Poisson decision queries against an in-process nowlaterd: only the HTTP, admission and policy path runs"},
}

func bound(b float64) *float64 { return &b }

// endToEnd is measured on every workload. The op is one scenario (Link and
// Run) on ferry and fleet and one decision request on decide; work is
// delivered MB on ferry, simulated seconds on fleet and answered requests
// on decide. Peak resident memory is reported per layer
// (runtime.max_rss_mb) instead: on ferry it is set by how far the
// collector falls behind the MAC's allocation churn and moved by a third
// between runs.
var endToEnd = []Metric{
	{"setup_s", "s", "lower", bound(0.25)},
	{"op_ms_p50", "ms", "lower", bound(0.25)},
	{"op_ms_tail", "ms", "lower", bound(0.25)},
	{"work_per_cpu_s", "1/s", "higher", bound(0.25)},
}

// selfModules are the layers whose CPU self time the traced run reports.
var selfModules = []string{
	"mac", "channel", "phy", "rate", "link", "transport",
	"sim", "autopilot", "uav", "spatial", "scenario",
	"trajopt", "core", "failure", "policy", "nlserver", "nlwire", "overload",
	"geo", "stats", "other", "bench",
}

// counterMetrics are the traced run's per-layer counters.
var counterMetrics = []Metric{
	{"mac.ns_per_exchange", "ns", "lower", nil},
	{"mac.exchanges", "count", "lower", nil},
	{"mac.subframes_attempted", "count", "lower", nil},
	{"mac.subframes_delivered", "count", "higher", nil},
	{"mac.subframes_dropped", "count", "lower", nil},
	{"mac.delivery_ratio", "ratio", "higher", nil},
	{"mac.airtime_s", "s", "lower", nil},
	{"link.outage_s", "s", "lower", nil},
	{"transport.retransmit_ratio", "ratio", "lower", nil},
	{"sim.events", "count", "lower", nil},
	{"sim.peak_pending", "count", "lower", nil},
	{"autopilot.subticks_stepped", "count", "lower", nil},
	{"autopilot.subticks_elided", "count", "higher", nil},
	{"autopilot.ns_per_subtick", "ns", "lower", nil},
	{"trajopt.served_ratio", "ratio", "higher", nil},
	{"trajopt.expired", "count", "lower", nil},
	{"scenario.resolve_s", "s", "lower", nil},
	{"scenario.link_s", "s", "lower", nil},
	{"scenario.run_s", "s", "lower", nil},
	{"scenario.table_builds", "count", "lower", nil},
	{"scenario.table_hits", "count", "higher", nil},
	{"scenario.table_build_s", "s", "lower", nil},
	{"policy.cache_hit_ratio", "ratio", "higher", nil},
	{"policy.exact_fallbacks", "count", "lower", nil},
	{"policy.degraded_ratio", "ratio", "lower", nil},
	{"nlserver.server_ms_p50", "ms", "lower", nil},
	{"overload.shed", "count", "lower", nil},
	{"decide.max_ok_rps", "1/s", "higher", nil},
	{"bench.gen_late_ms_p99", "ms", "lower", nil},
	{"runtime.other_s", "s", "lower", nil},
	{"runtime.max_rss_mb", "MB", "lower", nil},
	{"runtime.alloc_mb", "MB", "lower", nil},
	{"runtime.gc_cycles", "count", "lower", nil},
	{"runtime.gc_pause_ms", "ms", "lower", nil},
}

// perLayer is every metric the traced run reports: one self time per
// module, then the counters.
func perLayer() []Metric {
	var out []Metric
	for _, m := range selfModules {
		out = append(out, Metric{m + ".self_s", "s", "lower", nil})
	}
	return append(out, counterMetrics...)
}

// BenchDir is the benchmark's directory, relative to the repository root.
const BenchDir = "bench"

func manifest() Manifest {
	return Manifest{
		Command:    []string{"bash", BenchDir + "/run.sh"},
		Paths:      []string{BenchDir},
		RunSeconds: RunSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
}

// manifestJSON renders BENCHMARK.json.
func manifestJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(manifest()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Validate checks the manifest's names, units and bounds.
func (m Manifest) Validate() error {
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("manifest: %s name %q: want [A-Za-z0-9_.-], at most 64", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("manifest: %s name %q used twice", kind, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range m.Workloads {
		if err := check("workload", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("manifest: workload %s: why must be 1 to 200 characters", w.Name)
		}
	}
	for _, list := range [][]Metric{m.EndToEnd, m.PerLayer} {
		for _, x := range list {
			if err := check("metric", x.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(x.Unit) {
				return fmt.Errorf("manifest: metric %s: bad unit %q", x.Name, x.Unit)
			}
			if x.Better != "lower" && x.Better != "higher" {
				return fmt.Errorf("manifest: metric %s: better %q", x.Name, x.Better)
			}
		}
	}
	for _, x := range m.EndToEnd {
		if x.Bound == nil || *x.Bound <= 0 || *x.Bound > 0.25 {
			return fmt.Errorf("manifest: metric %s: bound must be in (0, 0.25]", x.Name)
		}
	}
	return nil
}
