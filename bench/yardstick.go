package main

import "time"

// On a shared host the speed drifts with the load of other tenants: by 30%
// and more over minutes on the 2-CPU linux/amd64 host of the committed
// baseline. A job's thread CPU time drifts with its wall time, so CPU time
// does not filter the drift out. The timing metrics therefore divide each job's time by the time of a
// yardstick measured right after the job's block: a fixed computation with
// the same memory behaviour as the program's BDD work (a unique table, an
// operation cache, node arrays), built from the code below and not from the
// repository's BDD package, so no change to the program can move it. Over
// ten seeds in a period when raw job times spread by 30-37%, the normalized
// times spread by 2-6%.

// yard is a minimal reduced ordered BDD package: nodes 0 and 1 are the
// terminals, a node's level is its variable index.
type yard struct {
	level, lo, hi []int32
	unique        []int32 // open addressing over node ids, 0 marks empty
	cacheKey      []uint64
	cacheVal      []int32
}

func newYard(vars int) *yard {
	const nodes = 1 << 18
	y := &yard{
		level:    make([]int32, 2, nodes),
		lo:       make([]int32, 2, nodes),
		hi:       make([]int32, 2, nodes),
		unique:   make([]int32, 1<<21),
		cacheKey: make([]uint64, 1<<20),
		cacheVal: make([]int32, 1<<20),
	}
	y.level[0], y.level[1] = int32(vars), int32(vars)
	y.lo[1], y.hi[1] = 1, 1
	return y
}

func (y *yard) mk(level, lo, hi int32) int32 {
	if lo == hi {
		return lo
	}
	mask := uint64(len(y.unique) - 1)
	h := (uint64(level)*0x9E3779B97F4A7C15 ^ uint64(lo)*0xBF58476D1CE4E5B9 ^ uint64(hi)*0x94D049BB133111EB) & mask
	for ; y.unique[h] != 0; h = (h + 1) & mask {
		if n := y.unique[h]; y.level[n] == level && y.lo[n] == lo && y.hi[n] == hi {
			return n
		}
	}
	n := int32(len(y.level))
	y.level = append(y.level, level)
	y.lo = append(y.lo, lo)
	y.hi = append(y.hi, hi)
	y.unique[h] = n
	return n
}

func (y *yard) and(a, b int32) int32 {
	switch {
	case a == 0 || b == 0:
		return 0
	case a == 1 || a == b:
		return b
	case b == 1:
		return a
	}
	if a > b {
		a, b = b, a
	}
	key := uint64(a)<<32 | uint64(b)
	slot := key * 0x9E3779B97F4A7C15 >> 44
	if y.cacheKey[slot] == key {
		return y.cacheVal[slot]
	}
	la, lb := y.level[a], y.level[b]
	var r int32
	switch {
	case la == lb:
		r = y.mk(la, y.and(y.lo[a], y.lo[b]), y.and(y.hi[a], y.hi[b]))
	case la < lb:
		r = y.mk(la, y.and(y.lo[a], b), y.and(y.hi[a], b))
	default:
		r = y.mk(lb, y.and(a, y.lo[b]), y.and(a, y.hi[b]))
	}
	y.cacheKey[slot], y.cacheVal[slot] = key, r
	return r
}

// not is uncached; it is only applied to small BDDs.
func (y *yard) not(a int32) int32 {
	if a <= 1 {
		return 1 - a
	}
	return y.mk(y.level[a], y.not(y.lo[a]), y.not(y.hi[a]))
}

func (y *yard) or(a, b int32) int32 { return y.not(y.and(y.not(a), y.not(b))) }

// queens builds the n-queens constraint: a queen in every row, and no two
// queens attacking each other.
func (y *yard) queens(n int) int32 {
	square := func(r, c int) int32 { return y.mk(int32(r*n+c), 0, 1) }
	q := int32(1)
	for r := 0; r < n; r++ {
		row := int32(0)
		for c := 0; c < n; c++ {
			row = y.or(row, square(r, c))
		}
		q = y.and(q, row)
	}
	for i := 0; i < n*n; i++ {
		r, c := i/n, i%n
		for j := i + 1; j < n*n; j++ {
			r2, c2 := j/n, j%n
			if r2 == r || c2 == c || r2-r == c2-c || r2-r == c-c2 {
				q = y.and(q, y.not(y.and(square(r, c), square(r2, c2))))
			}
		}
	}
	return q
}

// yardstick returns the seconds one 8-queens build takes; the tables are
// allocated before the clock starts.
func yardstick() float64 {
	y := newYard(64)
	start := time.Now()
	y.queens(8)
	return time.Since(start).Seconds()
}
