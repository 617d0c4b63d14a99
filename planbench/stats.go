package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail value.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it: the value at rank n-tailBeyond-1 of the sorted samples,
// and that rank's percentile. With tailBeyond samples or fewer no such
// percentile exists; the maximum is returned with percentile 100 so the
// details line shows the tail is not a real one.
func tail(xs []float64) (value, percentile float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
