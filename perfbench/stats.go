package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of integer nanosecond samples, sorting
// xs in place. Samples are whole nanoseconds, so many share a value; a
// plain order statistic would read the same integer on most runs. The
// estimate instead spreads each block of tied values uniformly over
// [v-0.5, v+0.5) and interpolates inside it (a continuity-corrected
// quantile), which agrees with the order statistic to within half a
// nanosecond.
func quantile(xs []uint32, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	r := q * float64(len(xs))
	i := int(r)
	if i >= len(xs) {
		i = len(xs) - 1
	}
	v := xs[i]
	lo, _ := slices.BinarySearch(xs, v)
	hi, _ := slices.BinarySearch(xs, v+1)
	frac := (r - float64(lo)) / float64(hi-lo)
	if frac > 1 {
		frac = 1
	}
	return float64(v) - 0.5 + frac
}

// floatQuantile returns the q-quantile of xs by linear interpolation
// between order statistics, NaN when xs is empty. xs is sorted in place.
func floatQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	r := q * float64(len(xs)-1)
	i := int(r)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (r-float64(i))*(xs[i+1]-xs[i])
}

// median returns the median of xs (the mean of the middle two for an
// even count), NaN when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(n=4), the spread
// measure the benchmark's stability rule uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(p float64) float64 {
		m := p * float64(n+1)
		j := int(m)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// relSpread is the interquartile range of xs as a share of its median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// mean returns the arithmetic mean of integer samples, NaN when empty.
func mean(xs []uint32) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}
