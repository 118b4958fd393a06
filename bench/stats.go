package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must leave above
// it: a percentile with fewer samples beyond it is one slow job, not a tail.
const minTail = 10

// quantiles cuts data into n equal-probability intervals and returns the
// n-1 cut points, computed exactly like Python's
// statistics.quantiles(data, n=n) with its default "exclusive" method, so a
// spread computed here matches one computed from the same values there.
func quantiles(data []float64, n int) []float64 {
	xs := append([]float64(nil), data...)
	sort.Float64s(xs)
	ld := len(xs)
	if ld == 0 || n < 1 {
		return nil
	}
	if ld == 1 {
		out := make([]float64, n-1)
		for i := range out {
			out[i] = xs[0]
		}
		return out
	}
	m := ld + 1
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out = append(out, (xs[j-1]*float64(n-delta)+xs[j]*float64(delta))/float64(n))
	}
	return out
}

// median is the middle value (the mean of the two middle values for an even
// count), like Python's statistics.median.
func median(data []float64) float64 {
	xs := append([]float64(nil), data...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the q-quantile of data (q in (0,1), one of the cuts of
// quantiles(data, 100)) and refuses to report it when fewer than minTail
// samples lie beyond it: job_p75_ref needs at least 40 samples.
func percentile(data []float64, q float64) (float64, error) {
	if need := int(math.Ceil(minTail / (1 - q))); len(data) < need {
		return 0, fmt.Errorf("p%g needs at least %d samples for %d beyond it, have %d",
			q*100, need, minTail, len(data))
	}
	pct := int(math.Round(q * 100))
	return quantiles(data, 100)[pct-1], nil
}

// iqrShare is the distance between the first and third quartiles as a share
// of the median: the run-to-run spread the bounds are judged against.
func iqrShare(data []float64) float64 {
	if len(data) < 2 {
		return 0
	}
	q := quantiles(data, 4)
	med := median(data)
	if med == 0 {
		return 0
	}
	return math.Abs(q[2]-q[0]) / math.Abs(med)
}

// gmean is the geometric mean of positive values.
func gmean(data []float64) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range data {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(data)))
}
