package core

import (
	"errors"
	"fmt"
)

// The typed error taxonomy of the virtualization layer. Every allocation
// and serving failure wraps exactly one of these sentinels, so callers at
// any layer — hypervisor, cluster dispatcher, or the public vnpu package —
// can branch with errors.Is instead of matching message strings.
var (
	// ErrNoCapacity reports that the chip lacks the free cores or free
	// global memory the request needs right now. The condition is
	// transient: destroying a vNPU may clear it.
	ErrNoCapacity = errors.New("insufficient free capacity")

	// ErrStalePlacement reports a precomputed placement whose cores are
	// no longer all free: a concurrent create claimed one between the
	// placement's resolution and its use. It wraps ErrNoCapacity, but the
	// chip may well have room — resolving the placement again against the
	// current free set is the cure, not waiting for a release.
	ErrStalePlacement = fmt.Errorf("stale placement: %w", ErrNoCapacity)

	// ErrTopologyUnsatisfiable reports that the requested topology cannot
	// be realized under the chosen strategy (e.g. StrategyExact found no
	// isomorphic region, or no connected region exists).
	ErrTopologyUnsatisfiable = errors.New("topology unsatisfiable")

	// ErrMemoryExceeded reports a memory-budget violation: a workload
	// larger than its vNPU's memory, meta tables overflowing the meta
	// zone, or a KV buffer that does not fit the scratchpad.
	ErrMemoryExceeded = errors.New("memory budget exceeded")

	// ErrDestroyed reports an operation on a vNPU that no longer exists or
	// on a cluster that has been closed.
	ErrDestroyed = errors.New("destroyed")

	// ErrQueueFull reports that the cluster's bounded admission queue is
	// full — the backpressure signal of the serving front-end.
	ErrQueueFull = errors.New("admission queue full")

	// ErrQuotaExceeded reports that a tenant already has its maximum
	// number of jobs in flight.
	ErrQuotaExceeded = errors.New("tenant quota exceeded")

	// ErrLeased reports an attempt to destroy a vNPU that a serving
	// session currently holds a lease on (a job may be executing on it).
	// Release the lease — or evict the session through its pool, which
	// only targets idle sessions — before destroying.
	ErrLeased = errors.New("vNPU is leased")

	// ErrDeadlineExceeded reports that a job's scheduling deadline passed
	// before the job could be placed on a chip: the scheduler fails such
	// jobs fast instead of running work whose SLO is already missed. It
	// is distinct from context.DeadlineExceeded — the job's submission
	// context may still be live.
	ErrDeadlineExceeded = errors.New("scheduling deadline exceeded")

	// ErrShardDraining reports a submission routed to a fleet shard that
	// is draining: the shard finishes its admitted work but accepts no
	// new jobs. Transient — the fleet re-homes the session key, so a
	// retry lands on the new owner.
	ErrShardDraining = errors.New("shard draining")

	// ErrNoActiveShards reports a fleet whose every shard is draining or
	// gone: no shard can accept the submission at all.
	ErrNoActiveShards = errors.New("no active shards")
)
