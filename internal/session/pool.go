// Package session implements the resident-vNPU pool behind the
// cluster's session-keyed jobs: instead of paying create→map→run→destroy
// for every job, jobs of one (tenant, model fingerprint, topology class)
// run on a resident vNPU, skipping placement, creation and compilation —
// the reuse lever the paper's fast create/destroy makes cheap to build
// but does not give by itself (steady-state occupancy, not create speed,
// decides serving throughput).
//
// The pool makes no scheduling decision of its own. The cluster's
// dispatcher offers a pooled session as one more placement candidate
// (Offer), claims it when it places the job (Acquire) or registers the
// vNPU it created instead (Add), and drops the job's hold when the job's
// execution ends (Lease.Release). Three mechanisms shape the pool:
//
//   - Warm leases: Acquire claims an idle session of the key. The last
//     Release returns the session to the idle pool with a TTL; a janitor
//     destroys sessions idle past it, and an LRU bound caps how much
//     capacity warm sessions may hold.
//   - Attach (continuous batching): with no idle session of the key,
//     Acquire claims a busy one whose attached jobs number fewer than
//     AttachDepth. The job runs after the session's current one on the
//     same resident vNPU, and the session stays busy until the last of
//     its holds is released.
//   - Pressure eviction: EvictIdle destroys idle sessions
//     lowest-scheduling-class first (LRU within a class) when a
//     placement fails for lack of capacity, so warm pools never starve
//     jobs that need fresh rectangles and low-priority residency is
//     preempted before high-priority pools are touched.
//
// A holder whose execution left the resource suspect marks the session
// with Lease.Fail; it is destroyed at its last release instead of being
// pooled.
//
// The pool is generic over the resource (R, the cluster's resident vNPU
// wrapper), keeping it independent of the virtualization layer like
// internal/sched. All methods are safe for concurrent use.
package session

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"github.com/vnpu-sim/vnpu/internal/core"
	"github.com/vnpu-sim/vnpu/internal/metrics"
	"github.com/vnpu-sim/vnpu/internal/sim"
)

// Key identifies a session class. Two jobs may share a resident vNPU
// only when every field matches: the tenant (sessions never cross tenant
// boundaries), the model fingerprint (the compiled program is cached on
// the session), the topology class (an exact encoding — isomorphic but
// relabeled topologies need distinct sessions, as their virtual-core
// wiring differs) and a fingerprint of the request options that shape
// the created vNPU (memory, confinement, translation mode, ...).
type Key struct {
	Tenant string
	Model  uint64
	Topo   string
	Opts   uint64
}

// Defaults for Config fields left zero.
const (
	// DefaultMaxIdle bounds resident idle sessions across the pool.
	DefaultMaxIdle = 64
	// DefaultTTL is the idle time after which a session is destroyed.
	DefaultTTL = time.Second
	// DefaultAttachDepth bounds the jobs attached to one busy session.
	DefaultAttachDepth = 16
)

// Config tunes a Pool.
type Config[R any] struct {
	// Destroy tears a session's resource down (destroys the vNPU and
	// releases its cores from the placement engine's mirror). Required.
	Destroy func(chip int, res R) error
	// Cores reports the resource's core count, for the warm-capacity
	// gauges (IdleCoresOn). Optional; nil reports 0.
	Cores func(res R) int
	// Priority reports the resource's scheduling class (higher = more
	// important). Eviction — pressure reclaim and the MaxIdle bound —
	// picks the lowest-class idle session first, least recently used
	// within a class, so a high-priority cold create preempts
	// low-priority warm residency before touching high-priority pools.
	// Optional; nil treats every session as class 0 (pure LRU).
	Priority func(res R) int
	// MaxIdle bounds idle sessions pool-wide; beyond it the
	// least-recently-used idle session is destroyed. <= 0 selects
	// DefaultMaxIdle.
	MaxIdle int
	// TTL is how long a session may sit idle before the janitor destroys
	// it. <= 0 selects DefaultTTL.
	TTL time.Duration
	// AttachDepth bounds how many jobs may be attached to one busy
	// session beyond the one it is running. <= 0 selects
	// DefaultAttachDepth.
	AttachDepth int
	// Clock supplies time to the TTL bookkeeping AND the janitor's tick
	// timer: with a sim.VirtualClock injected, idle sessions expire only
	// as virtual time advances. Nil uses the wall clock.
	Clock sim.Clock
	// Now overrides just the TTL timestamp reads (tests that want to
	// steer expiry without rewiring the janitor). It takes precedence
	// over Clock for timestamps; the janitor always ticks on Clock.
	// Tests that inject Now should call Sweep directly.
	Now func() time.Time
	// OnFree, when non-nil, runs after the pool returns capacity to the
	// system — a session went idle (reclaimable) or was destroyed. The
	// cluster wires it to the dispatcher's Kick so jobs parked on
	// backpressure rescore.
	OnFree func()
}

// sess is one resident session.
type sess[R any] struct {
	key   Key
	chip  int
	res   R
	cores int
	// prio is the session's scheduling class, fixed at create time (the
	// class of the job whose cold create built it); eviction prefers
	// lower classes.
	prio int
	// holds counts the leases on the session: the running job plus the
	// jobs attached behind it. A session with no holds is idle.
	holds int
	// failed marks a session to destroy at its last release.
	failed bool
	// expires and elem are meaningful while idle.
	expires time.Time
	elem    *list.Element
}

// Pool owns the resident sessions. Create one with New and Close it to
// destroy the idle residents and stop the janitor.
type Pool[R any] struct {
	cfg Config[R]

	mu        sync.Mutex
	closed    bool
	byKey     map[Key][]*sess[R]
	idleLRU   *list.List // front = most recently idle; evict from back
	idleCount int
	busyCount int
	idleCores map[int]int // per chip, warm reclaimable capacity
	stats     metrics.SessionStats
	destroyMu sync.Mutex
	firstErr  error // first Destroy failure, surfaced by Close

	stop        chan struct{}
	janitorDone chan struct{}
}

// New builds a pool and starts its TTL janitor.
func New[R any](cfg Config[R]) (*Pool[R], error) {
	if cfg.Destroy == nil {
		return nil, fmt.Errorf("session: config needs a Destroy hook")
	}
	if cfg.MaxIdle <= 0 {
		cfg.MaxIdle = DefaultMaxIdle
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.AttachDepth <= 0 {
		cfg.AttachDepth = DefaultAttachDepth
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.Wall()
	}
	p := &Pool[R]{
		cfg:         cfg,
		byKey:       make(map[Key][]*sess[R]),
		idleLRU:     list.New(),
		idleCores:   make(map[int]int),
		stop:        make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	go p.janitor()
	return p, nil
}

func (p *Pool[R]) now() time.Time {
	if p.cfg.Now != nil {
		return p.cfg.Now()
	}
	return p.cfg.Clock.Now()
}

// janitor periodically sweeps idle sessions past their TTL. It ticks on
// the configured Clock: with a virtual clock the sweeps fire as the
// owner advances time, so trace replays expire sessions at the right
// simulated moments instead of wall-clock ones.
func (p *Pool[R]) janitor() {
	defer close(p.janitorDone)
	tick := p.cfg.TTL / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	for {
		t := p.cfg.Clock.NewTimer(tick)
		select {
		case <-p.stop:
			t.Stop()
			return
		case <-t.C():
			p.Sweep()
		}
	}
}

// Lease is one job's hold on a session, from Acquire or Add until its
// Release.
type Lease[R any] struct {
	p *Pool[R]
	s *sess[R]
}

// Chip reports the chip hosting the leased session.
func (l *Lease[R]) Chip() int { return l.s.chip }

// Resource returns the leased resource.
func (l *Lease[R]) Resource() R { return l.s.res }

// attachableLocked reports whether a busy session takes one more
// attached job. Caller holds p.mu.
func (p *Pool[R]) attachableLocked(s *sess[R]) bool {
	return s.holds > 0 && !s.failed && s.holds <= p.cfg.AttachDepth
}

// Offer reports the chip of a session the key's next job could run on
// without claiming capacity: an idle one first, else a busy one with
// attach room. It only looks; Acquire claims.
func (p *Pool[R]) Offer(key Key) (chip int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, false
	}
	for _, s := range p.byKey[key] {
		if s.holds == 0 {
			return s.chip, true
		}
		if !ok && p.attachableLocked(s) {
			chip, ok = s.chip, true
		}
	}
	return chip, ok
}

// Acquire leases a session of the key on chip: an idle one (a warm hit)
// when there is one, else a busy one with attach room (batched). ok is
// false when neither exists or the pool is closed; the caller then
// creates a session and registers it with Add.
func (p *Pool[R]) Acquire(key Key, chip int) (l *Lease[R], batched, ok bool) {
	start := p.cfg.Clock.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, false, false
	}
	var attach *sess[R]
	for _, s := range p.byKey[key] {
		if s.chip != chip {
			continue
		}
		if s.holds == 0 {
			p.promoteLocked(s)
			p.stats.WarmHits++
			p.stats.WarmTime += p.cfg.Clock.Since(start)
			return &Lease[R]{p: p, s: s}, false, true
		}
		if attach == nil && p.attachableLocked(s) {
			attach = s
		}
	}
	if attach == nil {
		return nil, false, false
	}
	attach.holds++
	p.stats.Batched++
	return &Lease[R]{p: p, s: attach}, true, true
}

// Add registers a resource the caller created for the key on chip (a
// cold create that began at start) as a busy session and returns the
// creator's lease on it. On a closed pool it destroys the resource and
// fails with ErrDestroyed.
func (p *Pool[R]) Add(key Key, chip int, res R, start time.Time) (*Lease[R], error) {
	s := &sess[R]{key: key, chip: chip, res: res, holds: 1}
	if p.cfg.Cores != nil {
		s.cores = p.cfg.Cores(res)
	}
	if p.cfg.Priority != nil {
		s.prio = p.cfg.Priority(res)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.destroy(s)
		return nil, fmt.Errorf("session: pool closed: %w", core.ErrDestroyed)
	}
	p.byKey[key] = append(p.byKey[key], s)
	p.busyCount++
	p.stats.ColdCreates++
	p.stats.ColdTime += p.cfg.Clock.Since(start)
	p.mu.Unlock()
	return &Lease[R]{p: p, s: s}, nil
}

// Fail marks the leased session suspect: it takes no more attached jobs
// and is destroyed at its last release instead of being pooled. Jobs
// already attached still run on it.
func (l *Lease[R]) Fail() {
	l.p.mu.Lock()
	l.s.failed = true
	l.p.mu.Unlock()
}

// Release drops the lease's hold. The session's last release returns it
// to the idle pool — or destroys it when it failed or the pool is
// closed. Call it exactly once per lease.
func (l *Lease[R]) Release() {
	p, s := l.p, l.s
	p.mu.Lock()
	if s.holds--; s.holds > 0 {
		p.mu.Unlock()
		return
	}
	if p.closed || s.failed {
		p.removeBusyLocked(s)
		p.mu.Unlock()
		p.destroy(s)
		p.free()
		return
	}
	s.expires = p.now().Add(p.cfg.TTL)
	s.elem = p.idleLRU.PushFront(s)
	p.idleCount++
	p.busyCount--
	p.idleCores[s.chip] += s.cores
	var victims []*sess[R]
	for over := p.idleCount - p.cfg.MaxIdle; over > 0; over-- {
		victims = append(victims, p.popIdleLocked(p.victimLocked()))
		p.stats.EvictedLRU++
	}
	p.mu.Unlock()
	for _, v := range victims {
		p.destroy(v)
	}
	p.free()
}

// EvictIdle destroys up to n idle sessions — lowest scheduling class
// first, least recently used within a class — returning how many it
// evicted. The cluster calls it when a placement fails for lack of
// capacity, reclaiming warm cores for jobs that need fresh rectangles;
// the class-weighted order means low-priority warm residency is always
// cannibalized before high-priority pools.
func (p *Pool[R]) EvictIdle(n int) int {
	return p.evict(n, &p.stats.EvictedPressure)
}

// victimLocked picks the eviction victim: the idle session with the
// lowest class; within a class, the least recently used (closest to the
// LRU back). Caller holds p.mu; returns nil with no idle sessions.
func (p *Pool[R]) victimLocked() *list.Element {
	var best *list.Element
	bestPrio := 0
	// Walk from the LRU back so the first session seen in each class is
	// its least recently used; strict < keeps it.
	for e := p.idleLRU.Back(); e != nil; e = e.Prev() {
		s := e.Value.(*sess[R])
		if best == nil || s.prio < bestPrio {
			best, bestPrio = e, s.prio
		}
	}
	return best
}

// evict pops up to n idle sessions in class-weighted LRU order, counts
// them in the given stat (which must be a field of p.stats, guarded by
// p.mu), and destroys them outside the lock.
func (p *Pool[R]) evict(n int, counter *uint64) int {
	p.mu.Lock()
	var victims []*sess[R]
	for len(victims) < n {
		e := p.victimLocked()
		if e == nil {
			break
		}
		victims = append(victims, p.popIdleLocked(e))
		*counter++
	}
	p.mu.Unlock()
	for _, v := range victims {
		p.destroy(v)
	}
	if len(victims) > 0 {
		p.free()
	}
	return len(victims)
}

// Sweep destroys idle sessions whose TTL expired. The janitor calls it
// periodically; tests with an injected clock call it directly.
func (p *Pool[R]) Sweep() int {
	now := p.now()
	p.mu.Lock()
	var victims []*sess[R]
	// Idle order is monotonic in expiry (constant TTL), so the LRU back
	// always expires first.
	for e := p.idleLRU.Back(); e != nil; e = p.idleLRU.Back() {
		s := e.Value.(*sess[R])
		if s.expires.After(now) {
			break
		}
		victims = append(victims, p.popIdleLocked(e))
		p.stats.EvictedTTL++
	}
	p.mu.Unlock()
	for _, v := range victims {
		p.destroy(v)
	}
	if len(victims) > 0 {
		p.free()
	}
	return len(victims)
}

// Close stops the janitor and destroys every idle session. Sessions
// still busy are destroyed at their last release. It returns the first
// Destroy failure observed over the pool's lifetime.
func (p *Pool[R]) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("session: pool closed: %w", core.ErrDestroyed)
	}
	p.closed = true
	var victims []*sess[R]
	for e := p.idleLRU.Back(); e != nil; e = p.idleLRU.Back() {
		victims = append(victims, p.popIdleLocked(e))
	}
	p.mu.Unlock()
	close(p.stop)
	<-p.janitorDone
	for _, v := range victims {
		p.destroy(v)
	}
	p.destroyMu.Lock()
	defer p.destroyMu.Unlock()
	return p.firstErr
}

// IdleCoresOn reports how many of a chip's cores idle warm sessions
// hold — allocated but reclaimable capacity.
func (p *Pool[R]) IdleCoresOn(chip int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.idleCores[chip]
}

// Stats returns a snapshot of the pool's counters and gauges.
func (p *Pool[R]) Stats() metrics.SessionStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.IdleSessions = p.idleCount
	s.BusySessions = p.busyCount
	for _, n := range p.idleCores {
		s.IdleCores += n
	}
	return s
}

// promoteLocked moves an idle session to busy under one hold. Caller
// holds p.mu.
func (p *Pool[R]) promoteLocked(s *sess[R]) {
	p.idleLRU.Remove(s.elem)
	s.elem = nil
	s.holds = 1
	p.idleCount--
	p.busyCount++
	p.idleCores[s.chip] -= s.cores
}

// popIdleLocked removes the idle session at e from the LRU, the key
// index and the gauges, returning it for destruction. Caller holds p.mu.
func (p *Pool[R]) popIdleLocked(e *list.Element) *sess[R] {
	s := e.Value.(*sess[R])
	p.idleLRU.Remove(e)
	s.elem = nil
	p.idleCount--
	p.idleCores[s.chip] -= s.cores
	p.removeKeyLocked(s)
	return s
}

// removeBusyLocked removes a busy session from the key index and the
// busy gauge. Caller holds p.mu.
func (p *Pool[R]) removeBusyLocked(s *sess[R]) {
	p.busyCount--
	p.removeKeyLocked(s)
}

// removeKeyLocked drops s from the byKey index. Caller holds p.mu.
func (p *Pool[R]) removeKeyLocked(s *sess[R]) {
	list := p.byKey[s.key]
	for i, o := range list {
		if o == s {
			list[i] = list[len(list)-1]
			p.byKey[s.key] = list[:len(list)-1]
			break
		}
	}
	if len(p.byKey[s.key]) == 0 {
		delete(p.byKey, s.key)
	}
}

// destroy tears the session's resource down, recording the first
// failure for Close. Never called with p.mu held.
func (p *Pool[R]) destroy(s *sess[R]) {
	if err := p.cfg.Destroy(s.chip, s.res); err != nil {
		p.destroyMu.Lock()
		if p.firstErr == nil {
			p.firstErr = err
		}
		p.destroyMu.Unlock()
	}
}

// free runs the OnFree hook, if any.
func (p *Pool[R]) free() {
	if p.cfg.OnFree != nil {
		p.cfg.OnFree()
	}
}
