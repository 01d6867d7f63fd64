package sim

import "testing"

// BenchmarkCalendarAppend books 6-cycle bursts one idle cycle apart, so
// every burst lands past the tail as a new span: the O(1) streaming path.
// The calendar restarts every 1M spans to bound memory.
func BenchmarkCalendarAppend(b *testing.B) {
	var c Calendar
	var at Cycles
	for i := 0; i < b.N; i++ {
		if c.Spans() == 1<<20 {
			c.Reset()
			at = 0
		}
		at = c.Reserve(at, 6) + 7
	}
}

// BenchmarkCalendarBackfill holds a calendar at 1M spans (6-cycle bursts
// with 2-cycle gaps) and, per op, probes and reserves a burst that
// exactly fills the gap backfillDepth spans behind the tail — merging two
// spans — then appends one burst to keep the span count steady. This is
// the pattern of a core whose DMA clock trails another's.
func BenchmarkCalendarBackfill(b *testing.B) {
	const (
		spans         = 1 << 20
		backfillDepth = 4096
		period        = 8
	)
	var c Calendar
	for k := 0; k < spans; k++ {
		c.Reserve(Cycles(k*period), period-2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gap := Cycles((spans+i-backfillDepth)*period - 2)
		c.Probe(gap, 2)
		if got := c.Reserve(gap, 2); got != gap {
			b.Fatalf("backfill at %d landed at %d", gap, got)
		}
		c.Reserve(Cycles((spans+i)*period), period-2)
	}
	b.StopTimer()
	if c.Spans() != spans {
		b.Fatalf("%d spans, want a steady %d", c.Spans(), spans)
	}
}
