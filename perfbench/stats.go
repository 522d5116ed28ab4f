package main

import (
	"sort"
	"time"
)

// rank is the 1-based nearest-rank position of the pct-th percentile
// among n samples: the smallest rank r with r/n >= pct/100. Integer
// arithmetic, so p99 of 1000 samples is exactly rank 990.
func rank(n, pct int) int {
	r := (pct*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// beyond counts the samples ranked above the pct-th percentile.
func beyond(n, pct int) int { return n - rank(n, pct) }

// percentile returns the nearest-rank pct-th percentile of xs (0 when
// xs is empty). xs is not modified.
func percentile(xs []float64, pct int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), pct)-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// subSeed derives the i-th input seed of a run from its --seed, so a
// run's cost averages over several program draws instead of riding on
// one.
func subSeed(seed int64, i int) int64 { return seed*64 + int64(i) }
