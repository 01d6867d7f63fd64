package metrics

import "time"

// SessionStats is a snapshot of the session pool's serving counters: how
// often jobs were served by a warm resident vNPU (skipping placement and
// create entirely), how often they were attached to a busy session to
// run after its current job, what evictions cost the pool, and how warm
// and cold acquisition latencies compare. The session pool
// (internal/session) fills it; Cluster.SessionStats exposes it and
// cmd/vnpuserve -reuse prints it in the end-of-run report.
type SessionStats struct {
	// WarmHits counts jobs served by an existing idle resident session
	// (no placement decision, no vNPU create).
	WarmHits uint64
	// ColdCreates counts jobs that created a new resident session (full
	// placement + create path).
	ColdCreates uint64
	// Batched counts jobs attached to a busy session to run after its
	// current job — continuous batching (no idle session, no create).
	Batched uint64
	// EvictedTTL counts idle sessions destroyed because their idle TTL
	// expired.
	EvictedTTL uint64
	// EvictedLRU counts idle sessions destroyed to honor the pool's
	// idle-capacity bound.
	EvictedLRU uint64
	// EvictedPressure counts idle sessions destroyed to free cores or
	// memory for a job that could not otherwise be placed (the
	// ErrNoCapacity reclaim path).
	EvictedPressure uint64
	// IdleSessions and BusySessions are resident-session gauges at
	// snapshot time.
	IdleSessions int
	BusySessions int
	// IdleCores is the number of chip cores held by idle sessions at
	// snapshot time (warm, reclaimable capacity).
	IdleCores int
	// WarmTime and ColdTime accumulate the wall-clock acquisition cost of
	// warm hits and cold creates respectively; their averages quantify
	// the create-path skip.
	WarmTime time.Duration
	ColdTime time.Duration
}

// Jobs reports the total jobs routed through the pool.
func (s SessionStats) Jobs() uint64 { return s.WarmHits + s.ColdCreates + s.Batched }

// HitRate reports the fraction of pool-routed jobs that skipped the
// create path (warm hits plus attached jobs; 0 before any job).
func (s SessionStats) HitRate() float64 {
	total := s.Jobs()
	if total == 0 {
		return 0
	}
	return float64(s.WarmHits+s.Batched) / float64(total)
}

// Evicted reports total sessions destroyed before reuse could continue
// (TTL + LRU + pressure).
func (s SessionStats) Evicted() uint64 { return s.EvictedTTL + s.EvictedLRU + s.EvictedPressure }

// AvgWarmTime reports the mean acquisition latency of a warm hit (0
// before the first).
func (s SessionStats) AvgWarmTime() time.Duration {
	if s.WarmHits == 0 {
		return 0
	}
	return s.WarmTime / time.Duration(s.WarmHits)
}

// AvgColdTime reports the mean acquisition latency of a cold create (0
// before the first).
func (s SessionStats) AvgColdTime() time.Duration {
	if s.ColdCreates == 0 {
		return 0
	}
	return s.ColdTime / time.Duration(s.ColdCreates)
}
