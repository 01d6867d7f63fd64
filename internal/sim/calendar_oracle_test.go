package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// sliceCalendar is the reference Calendar: one sorted slice of disjoint,
// coalesced spans, located by bisection and shifted on every insert. It
// is simple enough to trust and too slow for long runs; the chunked
// Calendar must agree with it on every observable.
type sliceCalendar struct {
	busy      []ival
	busyTotal Cycles
	grants    uint64
}

func (c *sliceCalendar) Probe(at, dur Cycles) Cycles {
	if dur < 0 {
		dur = 0
	}
	start := at
	i := sort.Search(len(c.busy), func(i int) bool { return c.busy[i].end > start })
	for ; i < len(c.busy); i++ {
		iv := c.busy[i]
		if iv.start >= start+dur {
			break
		}
		if start < iv.end {
			start = iv.end
		}
	}
	return start
}

func (c *sliceCalendar) Reserve(at, dur Cycles) Cycles {
	if dur < 0 {
		dur = 0
	}
	start := c.Probe(at, dur)
	c.grants++
	c.busyTotal += dur
	if dur == 0 {
		return start
	}
	idx := sort.Search(len(c.busy), func(i int) bool { return c.busy[i].start > start })
	c.busy = append(c.busy, ival{})
	copy(c.busy[idx+1:], c.busy[idx:])
	c.busy[idx] = ival{start: start, end: start + dur}
	if idx > 0 && c.busy[idx-1].end == c.busy[idx].start {
		c.busy[idx-1].end = c.busy[idx].end
		c.busy = append(c.busy[:idx], c.busy[idx+1:]...)
		idx--
	}
	if idx+1 < len(c.busy) && c.busy[idx].end == c.busy[idx+1].start {
		c.busy[idx].end = c.busy[idx+1].end
		c.busy = append(c.busy[:idx+1], c.busy[idx+2:]...)
	}
	return start
}

// calendarPair drives a Calendar and the reference with the same
// operations and fails the test at the first divergence.
type calendarPair struct {
	t     *testing.T
	got   Calendar
	want  sliceCalendar
	ops   int
	split bool // some chunk split happened
	drop  bool // some chunk was merged away
}

func (p *calendarPair) probe(at, dur Cycles) {
	p.t.Helper()
	if g, w := p.got.Probe(at, dur), p.want.Probe(at, dur); g != w {
		p.t.Fatalf("op %d: Probe(%d, %d) = %d, reference %d", p.ops, at, dur, g, w)
	}
	p.check()
}

func (p *calendarPair) reserve(at, dur Cycles) Cycles {
	p.t.Helper()
	before := p.got.chunks
	g, w := p.got.Reserve(at, dur), p.want.Reserve(at, dur)
	if g != w {
		p.t.Fatalf("op %d: Reserve(%d, %d) = %d, reference %d", p.ops, at, dur, g, w)
	}
	after := p.got.chunks
	switch {
	case len(after) < len(before):
		p.drop = true
	case len(after) > len(before) && len(before) > 0:
		// Opening a new chunk past a full tail leaves the old tail chunk
		// in place just before a one-span chunk; anything else is a split.
		n := len(after)
		opened := len(after[n-1]) == 1 && &after[n-2][0] == &before[len(before)-1][0]
		p.split = p.split || !opened
	}
	p.check()
	return g
}

// check compares every observable and the chunk layout's invariants.
func (p *calendarPair) check() {
	p.t.Helper()
	p.ops++
	g, w := &p.got, &p.want
	if g.Spans() != len(w.busy) || g.BusyTotal() != w.busyTotal || g.Grants() != w.grants {
		p.t.Fatalf("op %d: spans/busy/grants = %d/%d/%d, reference %d/%d/%d",
			p.ops, g.Spans(), g.BusyTotal(), g.Grants(), len(w.busy), w.busyTotal, w.grants)
	}
	k := 0
	for ci, ch := range g.chunks {
		if len(ch) == 0 || len(ch) > chunkCap {
			p.t.Fatalf("op %d: chunk %d holds %d spans (cap %d)", p.ops, ci, len(ch), chunkCap)
		}
		for _, iv := range ch {
			if iv != w.busy[k] {
				p.t.Fatalf("op %d: span %d = %v, reference %v", p.ops, k, iv, w.busy[k])
			}
			k++
		}
	}
}

// TestCalendarMatchesReference drives the chunked Calendar and the
// sorted-slice reference with the same seeded Probe/Reserve sequences:
// streaming appends, backfills behind the tail, far-future bookings,
// zero and negative durations, and unit hole-fills that coalesce spans
// away until whole chunks vanish.
func TestCalendarMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := &calendarPair{t: t}
		var clock Cycles
		for op := 0; op < 6000; op++ {
			dur := Cycles(1 + rng.Intn(24))
			switch r := rng.Intn(100); {
			case r < 4:
				dur = -Cycles(rng.Intn(3)) // zero or negative
			case r < 6:
				dur = 0
			}
			var at Cycles
			streaming := false
			switch r := rng.Intn(1000); {
			case r < 5: // far-future booking, overtaken later by streaming
				at = clock + 5000 + Cycles(rng.Intn(20000))
			case r < 600: // streaming: at or just past the clock, leaving small gaps
				at = clock + Cycles(rng.Intn(4))
				streaming = true
			case r < 800: // backfill a little behind the clock
				at = clock - Cycles(rng.Intn(2000))
			case r < 950: // backfill anywhere
				at = Cycles(rng.Int63n(int64(clock) + 1))
			default: // near the start
				at = Cycles(rng.Intn(64))
			}
			if rng.Intn(4) == 0 {
				p.probe(at, dur)
			}
			if rng.Intn(5) == 0 {
				p.probe(at+1, dur) // a probe the next Reserve cannot reuse
			}
			if start := p.reserve(at, dur); streaming {
				clock = start + dur
			}
		}
		// Fill every hole with unit reservations from the front: each fill
		// that touches both neighbors merges them, emptying whole chunks.
		for p.got.Spans() > 1 {
			ch := p.got.chunks[0]
			hole := ch[0].end
			p.probe(hole, ch[len(ch)-1].end) // too long to fit in most holes
			p.reserve(hole, p.nextStart(hole)-hole)
		}
		if !p.split || !p.drop {
			t.Fatalf("seed %d: sequence never split (%v) or dropped (%v) a chunk", seed, p.split, p.drop)
		}
	}
}

// nextStart returns the start of the first span beginning after at.
func (p *calendarPair) nextStart(at Cycles) Cycles {
	i := sort.Search(len(p.want.busy), func(i int) bool { return p.want.busy[i].start > at })
	return p.want.busy[i].start
}

// TestCalendarHoleFillDropsChunks books unit spans one cycle apart across
// several chunks, then fills the holes back to front and front to back:
// every fill coalesces two spans, chunk boundaries included, until one
// span remains.
func TestCalendarHoleFillDropsChunks(t *testing.T) {
	const n = 3*chunkCap + 17
	for _, backwards := range []bool{false, true} {
		p := &calendarPair{t: t}
		for k := 0; k < n; k++ {
			p.reserve(Cycles(2*k), 1)
		}
		if len(p.got.chunks) < 4 {
			t.Fatalf("%d spans in %d chunks, want at least 4", n, len(p.got.chunks))
		}
		for k := 0; k < n-1; k++ {
			hole := k
			if backwards {
				hole = n - 2 - k
			}
			p.reserve(Cycles(2*hole+1), 1)
		}
		if p.got.Spans() != 1 || len(p.got.chunks) != 1 || !p.drop {
			t.Fatalf("backwards=%v: %d spans in %d chunks after filling every hole", backwards, p.got.Spans(), len(p.got.chunks))
		}
	}
}

// TestCalendarReserveAfterProbeOfOtherRequest checks the probed-position
// reuse cannot leak into a Reserve of a different request.
func TestCalendarReserveAfterProbeOfOtherRequest(t *testing.T) {
	p := &calendarPair{t: t}
	for k := 0; k < 600; k++ {
		p.reserve(Cycles(3*k), 2)
	}
	p.probe(10, 1)
	p.reserve(10, 2) // same at, other duration
	p.probe(100, 1)
	p.reserve(101, 1) // other at, same duration
	p.probe(200, 1)
	p.reserve(200, 1) // reuse
	p.reserve(200, 1) // stale hint must not be reused
}

// TestCalendarFullChunkBoundaries fills whole chunks with spans that
// leave room for a free-standing span in every gap, then books into the
// gaps at and around each chunk boundary, where the new span belongs at
// the front of a full chunk behind another full chunk.
func TestCalendarFullChunkBoundaries(t *testing.T) {
	p := &calendarPair{t: t}
	const n = 4 * chunkCap
	for k := 0; k < n; k++ {
		p.reserve(Cycles(4*k), 1)
	}
	for k := chunkCap - 1; k < n; k += chunkCap {
		for _, j := range []int{k, k - 1, k + 1} {
			p.probe(Cycles(4*j+2), 1)
			p.reserve(Cycles(4*j+2), 1)
		}
	}
	if !p.split {
		t.Fatal("booking into full chunks never split one")
	}
}
