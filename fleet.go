package vnpu

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/vnpu-sim/vnpu/internal/fleet"
	"github.com/vnpu-sim/vnpu/internal/obs"
	"github.com/vnpu-sim/vnpu/internal/obs/slo"
	"github.com/vnpu-sim/vnpu/internal/place"
	"github.com/vnpu-sim/vnpu/internal/sched"
	"github.com/vnpu-sim/vnpu/internal/sim"
)

// Fleet is the front-end over N independent Cluster shards — the scale
// tier above one cluster's chips. Jobs route by session affinity:
// a job with a session fingerprint (tenant, model, topology, options)
// that is reusable — explicitly or by repetition — consistent-hashes to
// its owning shard, so the warm resident vNPU it would hit is always on
// the shard it lands on; one-shot traffic instead balances onto the
// least-pressured shard. A background stealer re-homes queued
// best-effort work from overloaded shards, and shards drain and rejoin
// online: draining stops admissions, re-homes the shard's queued work
// and session keys, finishes its running jobs, and flushes its warm
// pool, with typed errors (ErrShardDraining, ErrNoActiveShards) — never
// dropped jobs — on every path.
//
// All methods are safe for concurrent use.
type Fleet struct {
	shards []*Cluster
	router *fleet.Router
	clk    sim.Clock
	// reg aggregates the fleet's own counters plus every shard's
	// registry; rec is the shared trace recorder (nil unless
	// WithTracing), one ring per shard; slo is the shared error-budget
	// tracker (nil unless WithSLO), scored by every shard so budgets
	// follow jobs across forwards. See telemetry.go.
	reg *obs.Registry
	rec *obs.Recorder
	slo *slo.Tracker

	stop chan struct{}
	wg   sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	seen     map[string]uint8
	steals   uint64
	rehomed  uint64
	rerouted uint64
	drains   uint64
	rejoins  uint64
}

const (
	// stealInterval paces the background stealer; stealBatch bounds one
	// pass's movement; stealGap is the minimum pressure difference worth
	// paying a cross-shard move for (Pressure runs on a roughly 0..2
	// scale: queued fraction plus held-core fraction).
	stealInterval = 2 * time.Millisecond
	stealBatch    = 8
	stealGap      = 0.5
	// drainPoll paces the quiescence check of Drain.
	drainPoll = time.Millisecond
)

// NewFleet boots a fleet of identical shards, each a Cluster of
// chipsPerShard chips built from cfg and the given options (so
// WithSessionReuse, WithClock etc. apply to every shard alike). Close
// the fleet to stop its shards.
func NewFleet(cfg Config, shards, chipsPerShard int, opts ...ClusterOption) (*Fleet, error) {
	if shards < 1 {
		return nil, fmt.Errorf("vnpu: fleet needs at least one shard, got %d", shards)
	}
	// The fleet's own timers (stealer pacing, drain polling) follow the
	// same clock the shards were given.
	var scratch clusterConfig
	for _, opt := range opts {
		opt(&scratch)
	}
	clk := scratch.clock
	if clk == nil {
		clk = sim.Wall()
	}
	f := &Fleet{
		router: fleet.NewRouter(shards, 0),
		clk:    clk,
		stop:   make(chan struct{}),
		seen:   make(map[string]uint8),
		reg:    obs.NewRegistry(),
	}
	f.reg.AddCollector(f.collect)
	// One recorder shared by every shard: per-shard rings keep writers
	// contention-free, while the shared sequence and job-id counters keep
	// a forwarded job's events on one trace track.
	if scratch.tracing {
		f.rec = obs.NewRecorder(shards, scratch.traceBuf)
	}
	// Likewise one SLO tracker: a fleet-wide budget must score a job once
	// wherever it completes, and the fleet registers its collector exactly
	// once (the shards skip theirs when handed a shared tracker).
	if len(scratch.slos) > 0 {
		objs := make([]slo.Objective, len(scratch.slos))
		for i, s := range scratch.slos {
			objs[i] = s.objective()
		}
		f.slo = slo.NewTracker(clk.Now, priorityClassNames(), objs...)
		f.reg.AddCollector(f.slo.Collect)
	}
	for i := 0; i < shards; i++ {
		shardOpts := append(opts[:len(opts):len(opts)], withShardObs(f.rec, i))
		if f.slo != nil {
			shardOpts = append(shardOpts, withSharedSLO(f.slo))
		}
		c, err := NewCluster(cfg, chipsPerShard, shardOpts...)
		if err != nil {
			for _, built := range f.shards {
				_ = built.Close()
			}
			return nil, fmt.Errorf("vnpu: booting shard %d: %w", i, err)
		}
		f.shards = append(f.shards, c)
		f.reg.AddSource(c.reg)
	}
	f.wg.Add(1)
	go f.stealLoop()
	return f, nil
}

// FleetHandle tracks one job submitted to a fleet: the ordinary Handle
// plus which shard took it. A stolen or re-homed job's handle keeps
// resolving — the fleet mirrors the outcome back — but Shard reports the
// shard that admitted it.
type FleetHandle struct {
	*Handle
	shard int
}

// Shard reports the shard the job was admitted on.
func (h *FleetHandle) Shard() int { return h.shard }

// routeKey fingerprints the job for shard routing: tenant, model
// content, exact topology and the vNPU-shaping options — the same
// identity the shards' session pools key warm leases by, so hashing it
// sends every job that could share a resident session to the same
// shard. ok is false for jobs that cannot be pooled (callback map
// options); they balance by pressure instead.
func routeKey(job Job) (string, bool) {
	req := job.request()
	if !place.PureMapOptions(req.MapOptions) {
		return "", false
	}
	return fmt.Sprintf("%s\x00%x\x00%x\x00%s",
		job.tenant(), modelSignature(job.Model), requestSignature(req),
		place.CanonicalKey(job.Topology)), true
}

// promote records the route key and reports whether it was seen before —
// the fleet-level mirror of the clusters' auto-promotion: a repeating
// fingerprint is session traffic worth pinning to its hash-owned shard
// even without Job.Reusable.
func (f *Fleet) promote(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	prev := f.seen[key]
	if prev == 0 && len(f.seen) >= seenLimit {
		for k := range f.seen {
			delete(f.seen, k)
			break
		}
	}
	if prev < 255 {
		f.seen[key] = prev + 1
	}
	return prev >= 1
}

// pressure is the router's load signal for one shard.
func (f *Fleet) pressure(shard int) float64 { return f.shards[shard].Pressure() }

// Submit routes the job to a shard and submits it there. Session-affine
// jobs (Job.Reusable, or a fingerprint the fleet has seen repeat) go to
// the shard owning their key — warm traffic keeps hitting its resident
// sessions; everything else goes to the least-pressured shard. A
// session-affine submission refused with ErrQueueFull is rerouted once
// to the least-pressured shard (a cold start beats a rejection); with
// every shard draining, Submit fails with ErrNoActiveShards.
func (f *Fleet) Submit(ctx context.Context, job Job) (*FleetHandle, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, fmt.Errorf("vnpu: fleet closed: %w", ErrDestroyed)
	}
	f.mu.Unlock()
	affine := false
	if key, ok := routeKey(job); ok && (job.Reusable || f.promote(key)) {
		affine = true
		shard, ok := f.router.Owner(key)
		if !ok {
			return nil, fmt.Errorf("vnpu: every shard is draining: %w", ErrNoActiveShards)
		}
		h, err := f.shards[shard].Submit(ctx, job)
		if err == nil {
			return &FleetHandle{Handle: h, shard: shard}, nil
		}
		if !errors.Is(err, ErrQueueFull) {
			return nil, err
		}
		// Fall through: the owner is saturated — a cold start elsewhere
		// beats bouncing the rejection to the caller.
	}
	shard, ok := f.router.PickLeast(f.pressure)
	if !ok {
		return nil, fmt.Errorf("vnpu: every shard is draining: %w", ErrNoActiveShards)
	}
	h, err := f.shards[shard].Submit(ctx, job)
	if err != nil {
		return nil, err
	}
	if affine {
		f.mu.Lock()
		f.rerouted++
		f.mu.Unlock()
	}
	return &FleetHandle{Handle: h, shard: shard}, nil
}

// forward re-submits a stolen job, under its original handle, on the
// given shard (or, when the shard is out of the rotation, the
// least-pressured active one). Every failure path resolves the handle
// with a typed error — a stolen job can be refused, never lost.
func (f *Fleet) forward(st sched.Stolen[Job, JobReport], shard int) {
	if shard < 0 || !f.router.IsActive(shard) {
		var ok bool
		if shard, ok = f.router.PickLeast(f.pressure); !ok {
			st.Handle.Finish(JobReport{}, fmt.Errorf(
				"vnpu: job re-homed off a draining shard with no shard left to take it: %w", ErrNoActiveShards))
			return
		}
	}
	if err := f.shards[shard].disp.Adopt(st); err != nil {
		st.Handle.Finish(JobReport{}, fmt.Errorf("vnpu: re-homing stolen job to shard %d: %w", shard, err))
	}
}

// stealLoop periodically moves queued best-effort work from the most- to
// the least-pressured shard. Only class-0 (best-effort) jobs move:
// higher classes place soon wherever they are, and moving them would
// reorder SLO traffic for nothing. Session-keyed jobs stay too: their
// key hashes to this shard, where their resident session lives.
func (f *Fleet) stealLoop() {
	defer f.wg.Done()
	for {
		t := f.clk.NewTimer(stealInterval)
		select {
		case <-f.stop:
			t.Stop()
			return
		case <-t.C():
		}
		f.stealOnce()
	}
}

func (f *Fleet) stealOnce() {
	hi, lo := -1, -1
	var hiP, loP float64
	for s := range f.shards {
		if !f.router.IsActive(s) {
			continue
		}
		p := f.shards[s].Pressure()
		if hi < 0 || p > hiP {
			hi, hiP = s, p
		}
		if lo < 0 || p < loP {
			lo, loP = s, p
		}
	}
	if hi < 0 || hi == lo || hiP-loP < stealGap {
		return
	}
	stolen := f.shards[hi].disp.Steal(PriorityBestEffort.class(), stealBatch, sessionKeyed)
	if len(stolen) == 0 {
		return
	}
	f.mu.Lock()
	f.steals += uint64(len(stolen))
	f.mu.Unlock()
	for _, st := range stolen {
		f.forward(st, lo)
	}
}

// sessionKeyed pins a job to its shard for the stealer.
func sessionKeyed(job Job) bool { return job.sess != nil }

// Drain takes a shard out of the rotation and empties it: admissions
// stop (its session keys re-home to the surviving shards immediately),
// its queued jobs — session-keyed ones included — are stolen and
// re-submitted on active shards, running
// work finishes in place, and its warm sessions are flushed once quiet.
// Drain returns when the shard is empty, or with ctx's error — the
// shard then keeps draining in the rotation sense but may still hold
// work. Draining an already-draining shard fails with ErrShardDraining.
// Every job admitted before the drain completes or fails typed; none
// are dropped.
func (f *Fleet) Drain(ctx context.Context, shard int) error {
	if shard < 0 || shard >= len(f.shards) {
		return fmt.Errorf("vnpu: no shard %d", shard)
	}
	if !f.router.Drain(shard) {
		return fmt.Errorf("vnpu: shard %d: %w", shard, ErrShardDraining)
	}
	f.mu.Lock()
	f.drains++
	f.mu.Unlock()
	// Re-home the whole queue, all classes: the shard is leaving, so
	// unlike the stealer there is no affinity left to respect.
	for {
		stolen := f.shards[shard].disp.Steal(NumPriorityClasses-1, stealBatch, nil)
		if len(stolen) == 0 {
			break
		}
		f.mu.Lock()
		f.rehomed += uint64(len(stolen))
		f.mu.Unlock()
		for _, st := range stolen {
			f.forward(st, -1)
		}
	}
	for !f.shards[shard].quiesced() {
		t := f.clk.NewTimer(drainPoll)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C():
		}
	}
	f.shards[shard].flushSessions()
	return nil
}

// Rejoin puts a drained shard back into the rotation: the session keys
// it owned come home (their next submission cold-starts a session on
// it — re-establishment, not migration), and the balancer and stealer
// see it again. Rejoining an active shard is an error.
func (f *Fleet) Rejoin(shard int) error {
	if shard < 0 || shard >= len(f.shards) {
		return fmt.Errorf("vnpu: no shard %d", shard)
	}
	if !f.router.Rejoin(shard) {
		return fmt.Errorf("vnpu: shard %d is already active", shard)
	}
	f.mu.Lock()
	f.rejoins++
	f.mu.Unlock()
	return nil
}

// NumShards reports the fleet's shard count (active or draining).
func (f *Fleet) NumShards() int { return len(f.shards) }

// Shard returns the i-th shard's Cluster for inspection. Submitting to
// it directly bypasses the fleet's routing (and its draining checks).
func (f *Fleet) Shard(i int) *Cluster { return f.shards[i] }

// FleetStats is a snapshot of the fleet's serving counters.
type FleetStats struct {
	// Shards holds each shard's own serving counters, in shard order.
	Shards []ClusterStats
	// Pressure is each shard's current routing-pressure signal.
	Pressure []float64
	// ActiveShards counts shards currently taking traffic.
	ActiveShards int
	// Steals counts queued best-effort jobs the balancer moved off
	// overloaded shards; ReHomed counts queued jobs Drain moved off a
	// draining shard.
	Steals  uint64
	ReHomed uint64
	// Rerouted counts session-affine submissions that fell to a
	// least-pressure shard because their owner's queue was full.
	Rerouted uint64
	// Drains and Rejoins count membership transitions.
	Drains  uint64
	Rejoins uint64
}

// Stats returns a snapshot of the fleet's counters, including each
// shard's ClusterStats.
func (f *Fleet) Stats() FleetStats {
	s := FleetStats{
		Shards:       make([]ClusterStats, len(f.shards)),
		Pressure:     make([]float64, len(f.shards)),
		ActiveShards: f.router.ActiveCount(),
	}
	for i, c := range f.shards {
		s.Shards[i] = c.Stats()
		s.Pressure[i] = c.Pressure()
	}
	f.mu.Lock()
	s.Steals = f.steals
	s.ReHomed = f.rehomed
	s.Rerouted = f.rerouted
	s.Drains = f.drains
	s.Rejoins = f.rejoins
	f.mu.Unlock()
	return s
}

// Close stops the stealer and closes every shard (each waits for its
// admitted jobs, forwarded ones included). Submissions after Close fail
// with ErrDestroyed.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return fmt.Errorf("vnpu: fleet closed: %w", ErrDestroyed)
	}
	f.closed = true
	f.mu.Unlock()
	close(f.stop)
	var firstErr error
	for _, c := range f.shards {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	f.wg.Wait()
	return firstErr
}
