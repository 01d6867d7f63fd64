package metrics

import "time"

// SchedClassStats is one priority class's serving counters and queueing
// latency percentiles. The dispatcher (internal/sched) fills it for
// every job, session-keyed or not, and Cluster.SchedStats exposes it;
// cmd/vnpuserve -priomix prints the per-class table.
type SchedClassStats struct {
	// Submitted counts jobs admitted into the class.
	Submitted uint64
	// Completed counts jobs of the class that finished successfully.
	Completed uint64
	// Failed counts jobs of the class that finished with an error,
	// including cancellations and deadline misses.
	Failed uint64
	// DeadlineMisses counts jobs failed with ErrDeadlineExceeded — their
	// deadline passed before the scheduler could place them.
	DeadlineMisses uint64
	// Displaced counts queued jobs pushed back past by a higher-class
	// arrival (preemption of queued work).
	Displaced uint64
	// Backfilled counts jobs placed out of strict admission order
	// because the scheduler's head-of-line job could not use the free
	// capacity they fit into (bounded backfill keeps chips busy while a
	// large high-class job waits for its slot).
	Backfilled uint64
	// Promotions counts aging promotions out of the class (starvation
	// protection at work).
	Promotions uint64
	// P50Wait and P99Wait are queueing-latency percentiles of the
	// class's completions, read from its fixed-bucket log-scale wait
	// histogram (internal/obs): each reports the upper bound of the
	// bucket holding the rank, so tails are never understated.
	P50Wait time.Duration
	P99Wait time.Duration
}

// SchedStats is a per-class snapshot of the scheduler core's counters,
// indexed by class (0 = lowest priority).
type SchedStats struct {
	Classes []SchedClassStats
}

// DeadlineMisses sums the misses across classes.
func (s SchedStats) DeadlineMisses() uint64 {
	var n uint64
	for _, c := range s.Classes {
		n += c.DeadlineMisses
	}
	return n
}
