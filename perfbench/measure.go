package main

import (
	"math"
	"sort"
)

// span is a half-open time interval [lo, hi) in nanoseconds since a game's
// clock origin.
type span struct{ lo, hi int64 }

func (s span) len() int64 { return s.hi - s.lo }

// percentile sorts xs in place and returns its q-quantile by the
// nearest-rank rule, together with the number of samples ranked above it —
// the count that says whether a tail percentile rests on enough samples.
// An empty xs yields NaN and 0.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // 0.9·110 must rank 99, not 100
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return xs[rank-1], n - rank
}

// median is the nearest-rank 0.5-quantile of a copy of xs.
func median(xs []float64) float64 {
	v, _ := percentile(append([]float64(nil), xs...), 0.5)
	return v
}

// union merges spans into disjoint components sorted by start. comp[i] is
// the index of the component that holds spans[i]. Spans that touch (one
// ends where the next starts) join one component: the calls of one
// fan-out start together and overlap, so each component is one fan-out.
func union(spans []span) (comps []span, comp []int) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].lo < spans[order[b]].lo })
	comp = make([]int, len(spans))
	for _, i := range order {
		s := spans[i]
		if n := len(comps); n > 0 && s.lo <= comps[n-1].hi {
			if s.hi > comps[n-1].hi {
				comps[n-1].hi = s.hi
			}
		} else {
			comps = append(comps, s)
		}
		comp[i] = len(comps) - 1
	}
	return comps, comp
}

// covered returns how much of w the disjoint components cover.
func covered(comps []span, w span) int64 {
	var t int64
	for _, c := range comps {
		lo, hi := max(c.lo, w.lo), min(c.hi, w.hi)
		if hi > lo {
			t += hi - lo
		}
	}
	return t
}

// steady slices a game's round posts into its steady window. posts[k] is
// the clock reading when round k+1 was posted and pause[k] is how long the
// benchmark's own OnRound hook held the coordinator after that post. The
// window runs from the post of the last warm-up round to the post of the
// last round; each steady round's interval is the gap between consecutive
// posts less the hook's pause, so the benchmark's bookkeeping never counts
// as game time. warmup must be at least 1 and below len(posts).
func steady(posts, pause []int64, warmup int) (window span, intervals []int64) {
	last := len(posts) - 1
	window = span{posts[warmup-1], posts[last]}
	intervals = make([]int64, 0, last-warmup+1)
	for k := warmup; k <= last; k++ {
		intervals = append(intervals, posts[k]-posts[k-1]-pause[k-1])
	}
	return window, intervals
}

// in reports whether t falls in the window (lo, hi]: a call dispatched
// after the last warm-up round posted, and no later than the last round's
// post, serves a steady round.
func (s span) in(t int64) bool { return t > s.lo && t <= s.hi }
