package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// fastMedian is the median of the fastest quarter of xs (the fastest of
// up to four values). It is what the benchmark reports for repeated
// identical work. The host's speed switches between two levels every few
// seconds, and the slower level took half to three quarters of a run; a
// plain median of the repetitions lands on whichever level most of them
// met.
func fastMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s[:(len(s)+3)/4])
}

// quantile is the linear-interpolation quantile of xs at q in [0, 1], the
// method Python's statistics.quantiles uses with method="inclusive".
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// exclusiveQuartiles returns the first and third quartiles as Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method). It needs at least two values.
func exclusiveQuartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(j int) float64 {
		m := j * (n + 1)
		k := m / 4
		frac := float64(m%4) / 4
		if k < 1 {
			return s[0]
		}
		if k >= n {
			return s[n-1]
		}
		return s[k-1] + (s[k]-s[k-1])*frac
	}
	return at(1), at(3)
}

// nearestRank returns the nearest-rank percentile of xs at q in (0, 1]:
// the smallest value with at least q·n values at or below it.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes returns the process's peak resident set size.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes
}
