package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/nowlater/nowlater/internal/stats"
)

// tailLadder is the percentile ladder the tail is chosen from.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailBeyond is how many samples must lie beyond a tail percentile.
const tailBeyond = 10

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 99.9% of 10000 is 9990, not 9991
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile picks the highest ladder percentile with at least
// tailBeyond samples beyond its rank in n samples.
func tailPercentile(n int) (float64, error) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= tailBeyond {
			return p, nil
		}
	}
	return 0, fmt.Errorf("tail: %d samples leave fewer than %d beyond the median", n, tailBeyond)
}

// Dist summarizes one timing distribution: its median and its tail at the
// ladder percentile TailP, both interpolated between the two nearest order
// statistics (stats.Quantile, type 7).
type Dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_p"`
	Tail  float64 `json:"tail"`
}

func summarize(xs []float64) (Dist, error) {
	p, err := tailPercentile(len(xs))
	if err != nil {
		return Dist{}, err
	}
	return summarizeAt(xs, p)
}

// summarizeAt summarizes xs with its tail at percentile p, which must
// leave at least tailBeyond samples beyond it.
func summarizeAt(xs []float64, p float64) (Dist, error) {
	if n := len(xs); n-rank(p, n) < tailBeyond {
		return Dist{}, fmt.Errorf("tail: p%v of %d samples leaves fewer than %d beyond it", p, n, tailBeyond)
	}
	tail, err := stats.Quantile(xs, p/100)
	if err != nil {
		return Dist{}, err
	}
	return Dist{N: len(xs), P50: stats.MustMedian(xs), TailP: p, Tail: tail}, nil
}

// setTailP is the tail percentile over a scenario set. Each point of the
// set is one scenario's best time, not a single sample, and the set is a
// fixed ladder of costs, so its tail is the p90 of the ladder — the large
// batches on ferry, the large swarms on fleet — and needs no samples
// beyond it.
const setTailP = 90

// summarizeSet summarizes one number per scenario of a set: the median
// and the setTailP percentile (stats.Quantile, type 7).
func summarizeSet(xs []float64) (Dist, error) {
	tail, err := stats.Quantile(xs, setTailP/100.0)
	if err != nil {
		return Dist{}, err
	}
	return Dist{N: len(xs), P50: stats.MustMedian(xs), TailP: setTailP, Tail: tail}, nil
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (exclusive method), the spread rule the
// benchmark is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*(ld+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}
