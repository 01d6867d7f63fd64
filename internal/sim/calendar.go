package sim

// Calendar is a serially-reusable resource with gap-filling reservations:
// unlike Resource (FIFO by reservation order), a Calendar keeps the actual
// schedule and places each reservation in the earliest idle gap at or
// after the requested time. Use it where requesters' clocks can run far
// apart — e.g. HBM channels shared by differently-paced tenants — so a
// future-time reservation never blocks an earlier-time one.
//
// The schedule is a list of chunks, each a sorted run of at most 256
// disjoint, coalesced busy spans; the chunks themselves are ordered, so
// their concatenation is one sorted span list. Dense streaming traffic
// leaves millions of spans behind (bursts are rarely exactly adjacent),
// so an insert must never shift the whole list: it copies within one
// chunk, and a full chunk splits in two. Requests are located from the
// tail, where nearly all of them land: a request at or after the last
// busy cycle is O(1); any other gallops backwards over the chunks' last
// ends and bisects inside one chunk, O(log d) for a request d spans
// behind the tail. A Reserve that repeats the immediately preceding
// Probe's (at, dur) reuses the probed position instead of searching again.
type Calendar struct {
	chunks    [][]ival // ordered, each non-empty, sorted, disjoint, coalesced
	spans     int
	busyTotal Cycles
	grants    uint64
	probed    probeHint
}

type ival struct{ start, end Cycles }

// chunkCap bounds a chunk's span count and so the copy an insert costs.
const chunkCap = 256

// probeHint remembers where the last Probe found its gap, so a Reserve of
// the same request commits without searching again. Any mutation clears it.
type probeHint struct {
	ok      bool
	at, dur Cycles
	start   Cycles
	ci, i   int
}

// Probe returns the start of the earliest gap of length dur at or after
// `at`, without reserving it.
func (c *Calendar) Probe(at, dur Cycles) Cycles {
	if dur < 0 {
		dur = 0
	}
	start, ci, i := c.find(at, dur)
	c.probed = probeHint{ok: true, at: at, dur: dur, start: start, ci: ci, i: i}
	return start
}

// Reserve books dur cycles in the earliest gap at or after `at` and
// returns the actual start time.
func (c *Calendar) Reserve(at, dur Cycles) Cycles {
	if dur < 0 {
		dur = 0
	}
	var start Cycles
	var ci, i int
	if h := c.probed; h.ok && h.at == at && h.dur == dur {
		start, ci, i = h.start, h.ci, h.i
	} else {
		start, ci, i = c.find(at, dur)
	}
	c.probed = probeHint{}
	c.grants++
	c.busyTotal += dur
	if dur > 0 {
		c.insert(ci, i, ival{start: start, end: start + dur})
	}
	return start
}

// find returns the earliest fitting start and the position (chunk ci,
// index i) of the first span after that gap — where a span starting
// there is inserted. Positions are normalized: i equals the chunk's
// length only at the very end of the schedule.
func (c *Calendar) find(at, dur Cycles) (start Cycles, ci, i int) {
	n := len(c.chunks)
	if n == 0 {
		return at, 0, 0
	}
	last := c.chunks[n-1]
	if at >= last[len(last)-1].end {
		return at, n - 1, len(last)
	}
	ci, i = c.locate(at)
	// Walk forward until a gap fits. Every span visited ends after the
	// candidate start (the first by locate, the rest because spans are
	// disjoint), so a span that does not leave room pushes start to its end.
	start = at
	for {
		ch := c.chunks[ci]
		for ; i < len(ch); i++ {
			if ch[i].start >= start+dur {
				return start, ci, i
			}
			start = ch[i].end
		}
		if ci == n-1 {
			return start, ci, i
		}
		ci, i = ci+1, 0
	}
}

// locate returns the position of the first span ending after at, which
// must lie before the schedule's last end. It gallops backwards from the
// tail over the chunks' last ends, then bisects inside one chunk.
func (c *Calendar) locate(at Cycles) (ci, i int) {
	// Invariant: chunks[hi] ends after at; lo < 0 or chunks[lo] does not.
	hi, lo := len(c.chunks)-1, -1
	for step := 1; ; step *= 2 {
		j := hi - step
		if j < 0 {
			break
		}
		if lastEnd(c.chunks[j]) <= at {
			lo = j
			break
		}
		hi = j
	}
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if lastEnd(c.chunks[mid]) > at {
			hi = mid
		} else {
			lo = mid
		}
	}
	ch := c.chunks[hi]
	l, h := 0, len(ch)-1 // ch[h].end > at
	for l < h {
		mid := int(uint(l+h) >> 1)
		if ch[mid].end > at {
			h = mid
		} else {
			l = mid + 1
		}
	}
	return hi, l
}

func lastEnd(ch []ival) Cycles { return ch[len(ch)-1].end }

// insert books span v at position (ci, i) as returned by find,
// coalescing it with its neighbors when they touch — across chunk
// boundaries too.
func (c *Calendar) insert(ci, i int, v ival) {
	if len(c.chunks) == 0 {
		c.chunks = append(c.chunks, newChunk(v))
		c.spans = 1
		return
	}
	ch := c.chunks[ci]
	var prev, next *ival
	if i > 0 {
		prev = &ch[i-1]
	} else if ci > 0 {
		p := c.chunks[ci-1]
		prev = &p[len(p)-1]
	}
	if i < len(ch) {
		next = &ch[i]
	}
	joinPrev := prev != nil && prev.end == v.start
	joinNext := next != nil && next.start == v.end
	switch {
	case joinPrev && joinNext:
		prev.end = next.end
		c.remove(ci, i)
	case joinPrev:
		prev.end = v.end
	case joinNext:
		next.start = v.start
	default:
		c.insertAt(ci, i, v)
	}
}

// insertAt places a new span at position (ci, i), splitting a full chunk.
func (c *Calendar) insertAt(ci, i int, v ival) {
	c.spans++
	// The front of a chunk is also the back of the one before it; prefer
	// whichever has room.
	if i == 0 && ci > 0 && len(c.chunks[ci-1]) < chunkCap {
		ci--
		i = len(c.chunks[ci])
	}
	ch := c.chunks[ci]
	if len(ch) == chunkCap {
		if ci == len(c.chunks)-1 && i == len(ch) {
			// Appending past a full tail opens a new chunk: streaming
			// traffic fills chunks completely instead of halving them.
			c.chunks = append(c.chunks, newChunk(v))
			return
		}
		const half = chunkCap / 2
		right := append(make([]ival, 0, chunkCap), ch[half:]...)
		c.chunks[ci] = ch[:half]
		c.chunks = append(c.chunks, nil)
		copy(c.chunks[ci+2:], c.chunks[ci+1:])
		c.chunks[ci+1] = right
		if i > half {
			ci, i = ci+1, i-half
		}
		ch = c.chunks[ci]
	}
	ch = append(ch, ival{})
	copy(ch[i+1:], ch[i:])
	ch[i] = v
	c.chunks[ci] = ch
}

// remove deletes the span at (ci, i), dropping its chunk if it empties.
func (c *Calendar) remove(ci, i int) {
	c.spans--
	ch := c.chunks[ci]
	ch = append(ch[:i], ch[i+1:]...)
	if len(ch) > 0 {
		c.chunks[ci] = ch
		return
	}
	copy(c.chunks[ci:], c.chunks[ci+1:])
	c.chunks[len(c.chunks)-1] = nil
	c.chunks = c.chunks[:len(c.chunks)-1]
}

func newChunk(v ival) []ival { return append(make([]ival, 0, chunkCap), v) }

// BusyTotal reports cumulative reserved cycles.
func (c *Calendar) BusyTotal() Cycles { return c.busyTotal }

// Grants reports how many reservations have been made.
func (c *Calendar) Grants() uint64 { return c.grants }

// Spans reports how many disjoint busy intervals the schedule holds. It
// grows with the run: adjacent bursts coalesce, but dense streaming
// traffic still leaves millions of spans per channel on long runs, 16
// bytes each, held in chunks of up to 256.
func (c *Calendar) Spans() int { return c.spans }

// Reset clears the schedule.
func (c *Calendar) Reset() { *c = Calendar{} }
