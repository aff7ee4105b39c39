package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/nowlater/nowlater/internal/stats"
)

// CompareConfig configures the comparator: two directories of run reports
// (the parent commit's and the change's) and the manifest whose bounds
// judge them.
type CompareConfig struct {
	// BaseDir holds the parent commit's reports.
	BaseDir string
	// CandidateDir holds the change's reports; empty summarizes BaseDir
	// alone.
	CandidateDir string
	// ManifestPath is the BENCHMARK.json carrying the bounds.
	ManifestPath string
}

// compareRuns is how many untraced reports each workload needs on each
// side: the number of runs the benchmark is judged on, enough for the
// quartile spread to mean something.
const compareRuns = 10

// Errors returned by CompareConfig.Validate; each names its field.
var (
	ErrBaseDirRequired = errors.New("compare: BaseDir is required")
	ErrBaseDirMissing  = errors.New("compare: BaseDir is not a directory")
	ErrCandidateDir    = errors.New("compare: CandidateDir is not a directory")
)

// DefaultCompareConfig reads the manifest at the repository root.
func DefaultCompareConfig() CompareConfig {
	return CompareConfig{ManifestPath: "BENCHMARK.json"}
}

// Validate checks the config, filling an empty ManifestPath with the
// default.
func (c *CompareConfig) Validate() error {
	isDir := func(p string) bool {
		st, err := os.Stat(p)
		return err == nil && st.IsDir()
	}
	switch {
	case c.BaseDir == "":
		return ErrBaseDirRequired
	case !isDir(c.BaseDir):
		return fmt.Errorf("%w: %q", ErrBaseDirMissing, c.BaseDir)
	case c.CandidateDir != "" && !isDir(c.CandidateDir):
		return fmt.Errorf("%w: %q", ErrCandidateDir, c.CandidateDir)
	}
	if c.ManifestPath == "" {
		c.ManifestPath = DefaultCompareConfig().ManifestPath
	}
	return nil
}

func compareMain(args []string, out io.Writer) error {
	cfg := DefaultCompareConfig()
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.StringVar(&cfg.BaseDir, "a", "", "directory of the parent commit's reports")
	fs.StringVar(&cfg.CandidateDir, "b", "", "directory of the change's reports (empty: summarize -a)")
	fs.StringVar(&cfg.ManifestPath, "manifest", cfg.ManifestPath, "BENCHMARK.json with the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return Compare(cfg, out)
}

// reportSet is one side's reports, keyed by workload, untraced and traced.
type reportSet map[string]*[2][]Report

func loadReports(dir string) (reportSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	set := reportSet{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r Report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if set[r.Env.Workload] == nil {
			set[r.Env.Workload] = &[2][]Report{}
		}
		t := 0
		if r.Env.Traced {
			t = 1
		}
		set[r.Env.Workload][t] = append(set[r.Env.Workload][t], r)
	}
	return set, nil
}

// values collects one metric over reports.
func values(rs []Report, metric string) []float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// envSummary lists the distinct environments a set of reports ran on.
func envSummary(rs []Report) string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rs {
		e := r.Env
		s := fmt.Sprintf("GOMAXPROCS=%d nproc=%d cpu=%q %s commit=%s", e.GOMAXPROCS, e.NumCPU, e.CPU, e.GoVersion, e.Commit)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return strings.Join(out, "; ")
}

// Compare prints, per workload and end-to-end metric, each side's median
// and quartiles, and judges the change against the manifest's bounds: a
// regression when the change's median is worse than the parent's by more
// than the bound, unresolved when the parent's own spread exceeds the
// bound and the runs overlap. It returns an error when a regression or a
// failed run is found.
func Compare(cfg CompareConfig, out io.Writer) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	mb, err := os.ReadFile(cfg.ManifestPath)
	if err != nil {
		return fmt.Errorf("compare: ManifestPath: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(mb, &man); err != nil {
		return fmt.Errorf("compare: ManifestPath: %w", err)
	}
	if err := man.Validate(); err != nil {
		return err
	}
	base, err := loadReports(cfg.BaseDir)
	if err != nil {
		return err
	}
	var cand reportSet
	if cfg.CandidateDir != "" {
		if cand, err = loadReports(cfg.CandidateDir); err != nil {
			return err
		}
	}
	var problems []string
	for _, w := range man.Workloads {
		sides := []reportSet{base}
		if cand != nil {
			sides = append(sides, cand)
		}
		for i, side := range sides {
			rs := side[w.Name]
			if rs == nil || len(rs[0]) < compareRuns {
				return fmt.Errorf("compare: workload %s: fewer than %d untraced reports in %s",
					w.Name, compareRuns, []string{cfg.BaseDir, cfg.CandidateDir}[i])
			}
			for _, r := range rs[0] {
				if !r.Correct {
					problems = append(problems, fmt.Sprintf("%s seed %d: %d of %d operations failed", w.Name, r.Env.Seed, r.Failed, r.Attempted))
				}
			}
		}
		b := base[w.Name]
		fmt.Fprintf(out, "workload %s: base %d runs (%s)\n", w.Name, len(b[0]), envSummary(b[0]))
		var c *[2][]Report
		if cand != nil {
			c = cand[w.Name]
			fmt.Fprintf(out, "workload %s: candidate %d runs (%s)\n", w.Name, len(c[0]), envSummary(c[0]))
		}
		for _, m := range man.EndToEnd {
			bv := values(b[0], m.Name)
			q1, q2, q3 := quartiles(bv)
			spread := (q3 - q1) / q2
			line := fmt.Sprintf("  %-16s %-4s base %.6g [%.6g, %.6g] spread %.1f%%", m.Name, m.Unit, q2, q1, q3, 100*spread)
			if c != nil {
				cv := values(c[0], m.Name)
				c1, c2, c3 := quartiles(cv)
				change := (c2 - q2) / q2
				worse := change
				if m.Better == "higher" {
					worse = -change
				}
				verdict := "ok"
				switch {
				case worse > *m.Bound:
					verdict = "REGRESSION"
					problems = append(problems, fmt.Sprintf("%s %s worse by %.1f%% (bound %.0f%%)", w.Name, m.Name, 100*worse, 100**m.Bound))
				case spread > *m.Bound && !separated(bv, cv, m.Better):
					verdict = "unresolved"
				}
				line += fmt.Sprintf("  cand %.6g [%.6g, %.6g]  change %+.1f%% (bound %.0f%%) %s", c2, c1, c3, 100*change, 100**m.Bound, verdict)
			}
			fmt.Fprintln(out, line)
		}
		for i, side := range []*[2][]Report{b, c} {
			if side == nil || len(side[1]) == 0 {
				continue
			}
			fmt.Fprintf(out, "  tracing overhead (%s, %d traced runs):", []string{"base", "cand"}[i], len(side[1]))
			for _, name := range []string{"op_ms_p50", "work_per_cpu_s"} {
				fmt.Fprintf(out, " %s x%.3f", name, stats.MustMedian(values(side[1], name))/stats.MustMedian(values(side[0], name)))
			}
			fmt.Fprintln(out)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("compare: %s", strings.Join(problems, "; "))
	}
	return nil
}

// separated reports whether every candidate run is better than every base
// run.
func separated(base, cand []float64, better string) bool {
	if len(base) == 0 || len(cand) == 0 {
		return false
	}
	sort.Float64s(base)
	sort.Float64s(cand)
	if better == "higher" {
		return cand[0] > base[len(base)-1]
	}
	return cand[len(cand)-1] < base[0]
}
