package main

import (
	"time"
)

// loopStats is what a closed loop measured.
type loopStats struct {
	// lat holds each operation's latency by statement class.
	lat     [][]time.Duration
	ops     int64
	rows    int64
	elapsed time.Duration
}

// all returns every latency in one slice.
func (s loopStats) all() []time.Duration {
	var out []time.Duration
	for _, l := range s.lat {
		out = append(out, l...)
	}
	return out
}

// classP50 lists each statement class's median latency in ms.
func (s loopStats) classP50() []float64 {
	out := make([]float64, len(s.lat))
	for i, l := range s.lat {
		out[i] = percentileMs(l, 0.5)
	}
	return out
}

// suiteMs sums each class's median latency: one pass over the mix, robust
// to the outliers a collection or a concurrent write adds to single ops.
func (s loopStats) suiteMs() float64 {
	total := 0.0
	for _, v := range s.classP50() {
		total += v
	}
	return total
}

// closedLoop runs one client that issues its next operation only when the
// previous one has completed. It cycles round-robin over classes
// statement classes and stops at the first whole cycle that ends after
// window (a zero window runs one cycle), so every run issues the same
// mix. op runs operation seq of the given class and returns the rows it
// produced; an error (a failed call or a result the oracle rejects) counts
// the operation as failed.
func closedLoop(o *outcome, window time.Duration, classes int, op func(class int, seq int64) (int, error)) loopStats {
	s := loopStats{lat: make([][]time.Duration, classes)}
	t0 := time.Now()
	for first := true; first || time.Since(t0) < window; first = false {
		for c := 0; c < classes; c++ {
			st := time.Now()
			rows, err := op(c, s.ops)
			s.lat[c] = append(s.lat[c], time.Since(st))
			s.ops++
			o.attempted++
			if err != nil {
				o.fail("class %d op %d: %v", c, s.ops, err)
				continue
			}
			s.rows += int64(rows)
		}
	}
	s.elapsed = time.Since(t0)
	return s
}
