package vnpu

// Resident sessions, built on internal/session. A cluster with
// WithSessionReuse keeps the vNPU of a finished session-keyed job
// resident instead of destroying it. Sessions are not a serving path of
// their own: every job goes through the dispatcher, and for a
// session-keyed job a resident session is one more placement outcome.
// Rank and RankHit offer the chip of an idle session of the job's
// (tenant, model, topology, options) key — a zero-cost candidate found by
// one pool lookup — or else of a busy one with attach room, and Place
// claims it: a warm lease (no placement decision, no create, no compile)
// or an attach, where the job queues on the session's chip behind the
// running job (continuous batching). With neither, Place creates the
// session cold. Idle sessions expire on a TTL, are bounded LRU-wide, and
// are evicted on demand when any job cannot otherwise be placed, so warm
// pools never starve jobs that need fresh rectangles.

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"time"

	"github.com/vnpu-sim/vnpu/internal/metrics"
	"github.com/vnpu-sim/vnpu/internal/obs"
	"github.com/vnpu-sim/vnpu/internal/place"
	"github.com/vnpu-sim/vnpu/internal/session"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// SessionStats is a snapshot of the session pool's counters: warm hits,
// cold creates, attached (batched) jobs, evictions by cause, resident-session
// gauges, and warm-vs-cold acquisition latency.
type SessionStats = metrics.SessionStats

// WithSessionReuse enables the session pool: session-keyed jobs (see
// Job.Reusable) run on resident vNPUs instead of paying the
// create→map→run→destroy path per job. SessionStats reports the warm-hit
// rate; tune the pool with WithSessionIdleTTL, WithSessionMaxIdle and
// WithSessionMicroQueue.
func WithSessionReuse() ClusterOption {
	return func(c *clusterConfig) { c.sessionReuse = true }
}

// WithSessionIdleTTL bounds how long a session may sit idle before its
// vNPU is destroyed (default session.DefaultTTL). Shorter TTLs return
// capacity sooner; longer ones raise the warm-hit rate on sparse
// traffic.
func WithSessionIdleTTL(d time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.sessionTTL = d }
}

// WithSessionMaxIdle bounds idle resident sessions cluster-wide (default
// session.DefaultMaxIdle); beyond it the least-recently-used idle
// session is destroyed.
func WithSessionMaxIdle(n int) ClusterOption {
	return func(c *clusterConfig) { c.sessionIdle = n }
}

// WithSessionMicroQueue bounds how many jobs of a busy session's key may
// be attached to it — placed on its resident vNPU to run back-to-back
// after the job it is running (continuous batching) — before further
// jobs of the key create another session (default
// session.DefaultAttachDepth).
func WithSessionMicroQueue(n int) ClusterOption {
	return func(c *clusterConfig) { c.sessionMicro = n }
}

// SessionStats returns a snapshot of the session pool's counters (zero
// when WithSessionReuse is off).
func (c *Cluster) SessionStats() SessionStats { return c.Snapshot().Sessions }

// CoreUsage splits one chip's cores by serving state: Allocated counts
// every core some vNPU holds, WarmIdle the subset held by idle resident
// sessions — allocated from the hypervisor's point of view but
// reclaimable on demand. The difference, Active, is what the scheduler's
// load tiebreak uses: a warm pool must not make a chip look busy.
type CoreUsage struct {
	// Cores is the chip's total core count.
	Cores int
	// Allocated counts cores held by any vNPU (running jobs, queued
	// placements, and resident sessions alike).
	Allocated int
	// WarmIdle counts cores held by idle (warm) resident sessions.
	WarmIdle int
}

// Active reports cores allocated to something other than an idle warm
// session.
func (u CoreUsage) Active() int { return u.Allocated - u.WarmIdle }

// ActiveFraction reports Active over the chip's core count.
func (u CoreUsage) ActiveFraction() float64 {
	if u.Cores == 0 {
		return 0
	}
	return float64(u.Active()) / float64(u.Cores)
}

// WarmFraction reports WarmIdle over the chip's core count.
func (u CoreUsage) WarmFraction() float64 {
	if u.Cores == 0 {
		return 0
	}
	return float64(u.WarmIdle) / float64(u.Cores)
}

// AllocatedFraction reports Allocated over the chip's core count — the
// same number Utilization reports.
func (u CoreUsage) AllocatedFraction() float64 {
	if u.Cores == 0 {
		return 0
	}
	return float64(u.Allocated) / float64(u.Cores)
}

// CoreUsage reports every chip's core usage split by serving state.
func (c *Cluster) CoreUsage() []CoreUsage {
	out := make([]CoreUsage, len(c.systems))
	for i := range c.systems {
		out[i] = c.coreUsage(i)
	}
	return out
}

func (c *Cluster) coreUsage(chip int) CoreUsage {
	sys := c.systems[chip]
	total := sys.Config().Cores()
	u := CoreUsage{Cores: total, Allocated: total - sys.FreeCores()}
	if c.pool != nil {
		u.WarmIdle = c.pool.IdleCoresOn(chip)
		if u.WarmIdle > u.Allocated {
			// An eviction's hypervisor destroy landed before the pool's
			// bookkeeping; clamp rather than report negative activity.
			u.WarmIdle = u.Allocated
		}
	}
	return u
}

// sessRes is the pooled resource: a resident vNPU plus the program
// compiled for it, cached so warm jobs skip compilation (the session key
// pins the model, so one slot suffices). cm is written and read only
// under the vNPU's region claim (see Cluster.run).
type sessRes struct {
	v  *VirtualNPU
	cm *CompiledModel
	// class is the session's scheduling class, fixed at create time (the
	// class of the job whose cold create built it). Eviction — pressure
	// reclaim and the MaxIdle bound — destroys lower classes first, and
	// the placement engine's held-core accounting files the session's
	// cores under it. A later higher-class job leasing the session does
	// not promote it; its residency was charged to its creator.
	class int
}

// sessLease names the pool lease instantiation.
type sessLease = session.Lease[*sessRes]

// sessionKeyOf computes the job's session class from the model
// fingerprint Submit already computed. ok is false when the job cannot
// be pooled: callback-based mapping options make the created vNPU a
// non-pure function of the key.
func sessionKeyOf(job Job, req Request, modelSig uint64) (session.Key, bool) {
	if !place.PureMapOptions(req.MapOptions) {
		return session.Key{}, false
	}
	return session.Key{
		Tenant: job.tenant(),
		Model:  modelSig,
		Topo:   place.CanonicalKey(job.Topology),
		Opts:   requestSignature(req),
	}, true
}

// requestSignature fingerprints every Request field that shapes the
// created vNPU; two jobs may share a resident session only when all of
// them match.
func requestSignature(req Request) uint64 {
	h := fnv.New64a()
	fold := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	confined := uint64(0)
	if req.Confined {
		confined = 1
	}
	fold(uint64(req.Strategy), confined, req.MemoryBytes, uint64(req.Translation),
		uint64(req.PageTLBEntries), uint64(req.MemChannels),
		uint64(req.BandwidthCapBytes), uint64(req.BandwidthWindow),
		uint64(req.KVBufferBytes), uint64(req.MapOptions.NodeInsDel))
	return h.Sum64()
}

// seenLimit bounds the auto-promotion memory.
const seenLimit = 4096

// autoPromote records the key and reports whether it was submitted
// before — repeated fingerprints are decode-phase-style traffic worth a
// resident session even without Job.Reusable.
func (c *Cluster) autoPromote(key session.Key) bool {
	c.seenMu.Lock()
	defer c.seenMu.Unlock()
	prev := c.seen[key]
	if prev == 0 && len(c.seen) >= seenLimit {
		// Evicting an arbitrary entry is fine for a promotion heuristic.
		for k := range c.seen {
			delete(c.seen, k)
			break
		}
	}
	if prev < 255 {
		c.seen[key] = prev + 1
	}
	return prev >= 1
}

// capacityCurable classifies placement errors that evicting idle
// sessions may cure: both "no free cores/memory" and "no region realizes
// the topology" can flip once held cores return to the free set.
func capacityCurable(err error) bool {
	return errors.Is(err, ErrNoCapacity) || errors.Is(err, ErrTopologyUnsatisfiable)
}

// sessionReclaim evicts one idle warm session, reporting whether
// anything was freed — the dispatcher's last resort before parking or
// failing an unplaceable job.
func (c *Cluster) sessionReclaim() bool {
	return c.pool != nil && c.pool.EvictIdle(1) > 0
}

// placeSession claims a resident session of the job's key on chip: an
// idle one (warm), else a busy one with attach room (batched) — the job
// then runs after the session's running job, serialized by the region
// claim on the resident vNPU — else a new session created there (cold)
// at the engine's resolved mapping, with the same stale-placement retry
// as any create. The session's cores are booked in the engine as held by
// the job's class (the session keeps that class for eviction order), and
// the outcome is recorded as the job's session trace event.
func (c *Cluster) placeSession(chip int, job Job) (placement, error) {
	key := *job.sess
	l, batched, warm := c.pool.Acquire(key, chip)
	if !warm {
		start := c.clk.Now()
		class := job.Priority.class()
		v, err := c.createPlaced(chip, job.request(), func(nodes []topo.NodeID) error {
			return c.engine.Reserve(chip, nodes, class)
		})
		if err != nil {
			return placement{}, err
		}
		r := &sessRes{v: v, class: class}
		// The resident vNPU executes inside its own timing domain for its
		// whole lifetime, so warm jobs overlap disjoint neighbors. An
		// overlap failure means the placement view is corrupt — undo the
		// create rather than serve on shared timing.
		if err := v.OpenDomain(); err != nil {
			_ = c.destroySession(chip, r)
			return placement{}, err
		}
		if l, err = c.pool.Add(key, chip, r, start); err != nil {
			return placement{}, err
		}
	}
	v := l.Resource().v
	// The vNPU lease guards the resident vNPU against destruction while
	// the job holds it; Release drops it.
	v.Lease()
	if c.rec != nil || c.slo != nil {
		detail := "cold"
		switch {
		case batched:
			detail = "batched"
		case warm:
			detail = "warm"
		}
		c.trace(&job, obs.StageSession, detail, chip)
	}
	return placement{v: v, sess: l, warm: warm}, nil
}

// destroySession is the pool's destroy hook: tear the resident vNPU down
// and return its cores to the placement engine's mirror (and its class's
// held-core account).
func (c *Cluster) destroySession(chip int, r *sessRes) error {
	nodes := append([]topo.NodeID(nil), r.v.Nodes()...)
	if err := c.systems[chip].Destroy(r.v); err != nil {
		return err
	}
	return c.engine.Evict(chip, nodes, r.class)
}
