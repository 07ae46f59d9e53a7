package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the midpoint median: with an even count it averages the two
// middle values, so two clustered modes do not flip the result on one sample.
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// series is a run of timed samples in the order they completed: at is the
// moment a sample's reply arrived, in seconds into the window; v its value.
type series struct{ at, v []float64 }

func (s *series) add(at, v float64) {
	s.at = append(s.at, at)
	s.v = append(s.v, v)
}

func (s *series) len() int { return len(s.v) }

func (s *series) merge(o *series) {
	s.at = append(s.at, o.at...)
	s.v = append(s.v, o.v...)
}

// The gated timings are "quiet" figures. The benchmark's host is a few cores
// of a shared machine whose speed moves by 1.2-1.5x for seconds to minutes
// at a time, and half of a window the program's own collector is marking.
// Both only ever add time, so what the program itself costs shows in the
// fastest stretches. A window's samples are cut into quietBlocks blocks of
// consecutive samples (~0.6 s each); a block's latency is its lower quartile
// and its rate the work it completed over the time it took; the figure is
// the mean over the best 1/quietShare of the blocks. The whole-window median
// is printed beside it, not gated (README, "Bounds").
const (
	quietBlocks = 40
	quietShare  = 4
)

// blockSize is the number of consecutive samples per block: n/quietBlocks,
// at least one (a window of few, long operations has one sample per block).
func blockSize(n int) int {
	if k := n / quietBlocks; k > 1 {
		return k
	}
	return 1
}

// quietest is the mean over the best 1/quietShare (lowest, or highest when
// higher is better) of per-block figures; at least one block.
func quietest(blocks []float64, higherBetter bool) float64 {
	if len(blocks) == 0 {
		return 0
	}
	s := sortedCopy(blocks)
	if higherBetter {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	n := len(s) / quietShare
	if n < 1 {
		n = 1
	}
	return mean(s[:n])
}

// quietLatency is the gated latency figure: the lower quartile of each block
// of consecutive samples, then the mean over the quietest blocks. A trailing
// partial block is dropped.
func (s *series) quietLatency() float64 {
	k := blockSize(len(s.v))
	var blocks []float64
	for i := 0; i+k <= len(s.v); i += k {
		blocks = append(blocks, percentile(sortedCopy(s.v[i:i+k]), 25))
	}
	return quietest(blocks, false)
}

// quietRate is the gated throughput figure: per block, the sum of v (units
// of work) over the time from the previous block's last reply to this
// block's, then the mean over the fastest blocks. The first block runs from
// the window's opening (at = 0).
func (s *series) quietRate() float64 {
	k := blockSize(len(s.v))
	var rates []float64
	prev := 0.0
	for i := 0; i+k <= len(s.v); i += k {
		units := 0.0
		for _, u := range s.v[i : i+k] {
			units += u
		}
		end := s.at[i+k-1]
		if end > prev {
			rates = append(rates, units/(end-prev))
		}
		prev = end
	}
	return quietest(rates, true)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder is the set of tail percentiles a report may quote.
var tailLadder = []float64{99.9, 99, 90}

// highestTail returns the highest percentile of the ladder that still has at
// least ten samples beyond it in a sample of n, or 50 when even p90 has not
// (n < 100): a p99 of forty samples is the maximum under another name.
func highestTail(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 10000 x 0.1% is 9.999... in floats
			return p
		}
	}
	return 50
}

// selfTime subtracts the rungs below from a rung, per operation. A result
// below zero by more than the tolerance (a fraction of the outer span) means
// the lower rung was not inside the outer one; ok reports that. Small
// negatives — two replicas timing the same operation a few µs apart — clamp
// to zero.
func selfTime(outer float64, inner []float64, tolerance float64) (self float64, ok bool) {
	self = outer
	for _, in := range inner {
		self -= in
	}
	if self < 0 {
		ok = -self <= tolerance*outer
		return 0, ok
	}
	return self, true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// memSampler tracks the peak of what the process holds from the OS: total
// mapped memory minus what the heap has already released. It is polled by
// the client goroutines themselves (no sampler thread to perturb a 2-vCPU
// run), so it needs no lock when each client owns one.
type memSampler struct {
	samples []metrics.Sample
	peak    uint64
}

func newMemSampler() *memSampler {
	return &memSampler{samples: []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}}
}

func (m *memSampler) sample() {
	metrics.Read(m.samples)
	held := m.samples[0].Value.Uint64() - m.samples[1].Value.Uint64()
	if held > m.peak {
		m.peak = held
	}
}

func (m *memSampler) peakMB() float64 { return float64(m.peak) / (1 << 20) }
