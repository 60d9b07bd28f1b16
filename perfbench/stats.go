package main

import (
	"math"
	"sort"
	"syscall"
	"time"

	"aimes/internal/stats"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. xs is
// not modified. It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002) from
// pushing an exact rank up by one.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailPercentiles are the tail percentiles a timing may be reported at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestTail picks the highest of tailPercentiles that leaves at least
// minBeyond of n samples strictly above its rank; ok is false when even the
// median does not.
func highestTail(n, minBeyond int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if n-nearestRank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); NaN when empty.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTimes reports the process's own user+system CPU time and that of its
// reaped children. A child's CPU time appears in children only after it has
// been waited for, so worker processes count once their environment closed.
func cpuTimes() (self, children time.Duration) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		self = tv(ru.Utime) + tv(ru.Stime)
	}
	if syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru) == nil {
		children = tv(ru.Utime) + tv(ru.Stime)
	}
	return self, children
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// openLoopTimes times one open-loop request. Latency runs from the time
// the request was due, not from when it was sent, so a stalled generator
// charges its stall to every request it delayed; lag is how late the
// request was sent.
func openLoopTimes(due, sent, final time.Time) (latency, lag time.Duration) {
	return final.Sub(due), max(sent.Sub(due), 0)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
