package main

import (
	"fmt"
	"math/rand"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// pct returns the nearest-rank p-quantile (0 < p <= 1) of xs, or 0 for
// an empty sample.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(float64(len(xs))*p+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is the middle value of xs, or the mean of the two middle values
// for an even count (0 for an empty sample).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func p99(xs []float64) float64 { return pct(xs, 0.99) }

// tailLevels are the percentiles a distribution summary may report as
// its tail, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// summary renders a timing distribution as its median plus the highest
// percentile with at least ten samples beyond it, with the sample count.
func summary(xs []float64, unit string) string {
	n := len(xs)
	if n == 0 {
		return "no samples"
	}
	tail := 0.5
	for _, p := range tailLevels {
		if float64(n)*(1-p) >= 10 {
			tail = p
			break
		}
	}
	if tail == 0.5 {
		return fmt.Sprintf("p50 %.4g %s, n=%d", pct(xs, 0.5), unit, n)
	}
	return fmt.Sprintf("p50 %.4g %s, p%g %.4g %s, n=%d", pct(xs, 0.5), unit, tail*100, pct(xs, tail), unit, n)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tailWindow is the sample count of one window of windowed: the
// smallest that leaves ten samples beyond a p99.
const tailWindow = 1000

// windowed applies stat to each consecutive window of tailWindow samples
// (in completion order) and returns the median over windows, so one
// burst of a slower host does not set a run's figure on its own. With
// fewer than two full windows it is stat of the whole sample.
func windowed(xs []float64, stat func([]float64) float64) float64 {
	if len(xs) < 2*tailWindow {
		return stat(xs)
	}
	var per []float64
	for i := 0; i+tailWindow <= len(xs); i += tailWindow {
		per = append(per, stat(xs[i:i+tailWindow]))
	}
	return median(per)
}

// anotherPass reports whether a pass as long as the last one would end
// within half a pass of the end of the measured window that began at
// begin, so runs end as close to the window as whole passes allow. The
// first pass always runs.
func anotherPass(begin time.Time, last, window time.Duration) bool {
	return time.Since(begin)+last/2 <= window
}

// deck deals indices 0..n-1 in rounds: each round is a fresh
// permutation drawn from rng, so every stretch of n draws holds each
// index once. It keeps a run's mix equal to the intended mix whatever
// the seed, while the seed still sets the order.
type deck struct {
	rng  *rand.Rand
	n    int
	left []int
}

func (d *deck) next() int {
	if len(d.left) == 0 {
		d.left = d.rng.Perm(d.n)
	}
	i := d.left[0]
	d.left = d.left[1:]
	return i
}

// rateSlots counts completions in consecutive slots of a measured
// window. Its rate is the median over slots of the completions per
// second, so a few seconds of a slower host do not set the run's
// throughput on their own.
type rateSlots struct {
	begin  time.Time
	slot   time.Duration
	counts []float64
}

// newRateSlots splits [begin, begin+length) into slots of the given
// length, or into one slot when length is shorter.
func newRateSlots(begin time.Time, length, slot time.Duration) *rateSlots {
	n := int(length / slot)
	if n < 1 {
		n, slot = 1, length
	}
	return &rateSlots{begin: begin, slot: slot, counts: make([]float64, n)}
}

// end is when the last slot ends.
func (r *rateSlots) end() time.Time {
	return r.begin.Add(time.Duration(len(r.counts)) * r.slot)
}

// add counts a completion at done; one outside the window is ignored.
func (r *rateSlots) add(done time.Time) {
	if i := int(done.Sub(r.begin) / r.slot); done.After(r.begin) && i < len(r.counts) {
		r.counts[i]++
	}
}

// rate is the median over slots of the completions per second.
func (r *rateSlots) rate() float64 {
	return median(r.counts) / r.slot.Seconds()
}

// heapSampler tracks the peak live heap (the bytes the last garbage
// collection found reachable) while it runs, per segment of the run.
// Segments end at cut calls, or every segment when that is positive;
// the result is the median segment peak, so one collection that caught
// unusually much floating garbage does not set the figure on its own.
type heapSampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	peak  uint64
	peaks []float64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler(segment time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: liveHeapMetric}}
		sample := func() {
			metrics.Read(s)
			h.mu.Lock()
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			h.mu.Unlock()
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		lastCut := time.Now()
		for {
			sample()
			if segment > 0 && time.Since(lastCut) >= segment {
				h.cut()
				lastCut = time.Now()
			}
			select {
			case <-h.stop:
				sample()
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// cut ends the current segment.
func (h *heapSampler) cut() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.peak > 0 {
		h.peaks = append(h.peaks, float64(h.peak)/(1<<20))
	}
	h.peak = 0
}

// peakMB stops the sampler, ends the last segment and returns the
// median segment peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.wg.Wait()
	h.cut()
	return median(h.peaks)
}
