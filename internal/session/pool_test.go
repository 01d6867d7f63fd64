package session

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vnpu-sim/vnpu/internal/core"
)

// fakeRes is the pooled resource of these tests.
type fakeRes struct {
	id int
}

// harness wires a Pool over a fake capacity-limited backend.
type harness struct {
	mu       sync.Mutex
	nextID   int
	live     map[int]bool
	capacity int // max live resources; creates beyond it fail ErrNoCapacity
	destroys int
}

func (h *harness) create() (int, *fakeRes, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.live) >= h.capacity {
		return 0, nil, fmt.Errorf("fake: %w", core.ErrNoCapacity)
	}
	h.nextID++
	h.live[h.nextID] = true
	return 0, &fakeRes{id: h.nextID}, nil
}

func (h *harness) destroy(chip int, r *fakeRes) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.live[r.id] {
		return fmt.Errorf("fake: resource %d destroyed twice", r.id)
	}
	delete(h.live, r.id)
	h.destroys++
	return nil
}

func newHarness(capacity int) *harness {
	return &harness{live: make(map[int]bool), capacity: capacity}
}

func newPool(t *testing.T, h *harness, mut func(*Config[*fakeRes])) *Pool[*fakeRes] {
	t.Helper()
	cfg := Config[*fakeRes]{
		Destroy: h.destroy,
		Cores:   func(r *fakeRes) int { return 2 },
	}
	if mut != nil {
		mut(&cfg)
	}
	p, err := New[*fakeRes](cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// acquireOrCreate places a job of the key the way the cluster does: on a warm or
// attached session of the key (reused == true), else on a session the
// create closure builds and Add registers — evicting idle sessions and
// retrying while the create fails for lack of capacity, as the
// dispatcher's Rank loop does. The fake backend has one chip, 0.
func acquireOrCreate(p *Pool[*fakeRes], create func() (int, *fakeRes, error), key Key) (l *Lease[*fakeRes], reused bool, err error) {
	if l, _, ok := p.Acquire(key, 0); ok {
		return l, true, nil
	}
	start := time.Now()
	for {
		chip, res, err := create()
		if err == nil {
			l, err := p.Add(key, chip, res, start)
			return l, false, err
		}
		if !errors.Is(err, core.ErrNoCapacity) || p.EvictIdle(1) == 0 {
			return nil, false, err
		}
	}
}

func TestAcquireWarmReuse(t *testing.T) {
	h := newHarness(8)
	p := newPool(t, h, nil)
	defer p.Close()

	key := Key{Tenant: "a", Model: 1}
	l1, warm, err := acquireOrCreate(p, h.create, key)
	if err != nil || warm {
		t.Fatalf("first acquire: warm=%v err=%v", warm, err)
	}
	res := l1.Resource()
	l1.Release()

	l2, warm, err := acquireOrCreate(p, h.create, key)
	if err != nil || !warm {
		t.Fatalf("second acquire: warm=%v err=%v", warm, err)
	}
	if l2.Resource() != res {
		t.Fatal("warm acquire returned a different resource")
	}
	// A different key must not reuse the session.
	l3, warm, err := acquireOrCreate(p, h.create, Key{Tenant: "b", Model: 1})
	if err != nil || warm {
		t.Fatalf("cross-key acquire: warm=%v err=%v", warm, err)
	}
	l2.Release()
	l3.Release()

	s := p.Stats()
	if s.WarmHits != 1 || s.ColdCreates != 2 {
		t.Fatalf("stats: %+v", s)
	}
	if s.HitRate() != 1.0/3 {
		t.Fatalf("hit rate %v", s.HitRate())
	}
}

func TestAcquireEvictsUnderCapacityPressure(t *testing.T) {
	h := newHarness(2)
	p := newPool(t, h, nil)
	defer p.Close()

	la, _, err := acquireOrCreate(p, h.create, Key{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	lb, _, err := acquireOrCreate(p, h.create, Key{Tenant: "b"})
	if err != nil {
		t.Fatal(err)
	}
	la.Release()
	lb.Release()

	// Backend is full; acquiring a third key must evict the LRU idle
	// session ("a") to make room.
	lc, warm, err := acquireOrCreate(p, h.create, Key{Tenant: "c"})
	if err != nil || warm {
		t.Fatalf("pressure acquire: warm=%v err=%v", warm, err)
	}
	lc.Release()
	s := p.Stats()
	if s.EvictedPressure != 1 {
		t.Fatalf("want 1 pressure eviction, got %+v", s)
	}
	// "b" must still be warm, "a" gone.
	if _, warm, _ := acquireOrCreate(p, h.create, Key{Tenant: "b"}); !warm {
		t.Fatal("LRU eviction removed the wrong session")
	}
}

func TestAcquirePressureExhaustedReturnsError(t *testing.T) {
	h := newHarness(1)
	p := newPool(t, h, nil)
	defer p.Close()

	la, _, err := acquireOrCreate(p, h.create, Key{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	// "a" is busy (not evictable); a second session cannot be created.
	if _, _, err := acquireOrCreate(p, h.create, Key{Tenant: "b"}); !errors.Is(err, core.ErrNoCapacity) {
		t.Fatalf("want ErrNoCapacity, got %v", err)
	}
	la.Release()
}

func TestMaxIdleLRUBound(t *testing.T) {
	h := newHarness(16)
	p := newPool(t, h, func(c *Config[*fakeRes]) { c.MaxIdle = 2 })
	defer p.Close()

	var leases []*Lease[*fakeRes]
	for i := 0; i < 4; i++ {
		l, _, err := acquireOrCreate(p, h.create, Key{Tenant: fmt.Sprint(i)})
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
	}
	for _, l := range leases {
		l.Release()
	}
	s := p.Stats()
	if s.IdleSessions != 2 || s.EvictedLRU != 2 {
		t.Fatalf("want 2 idle / 2 LRU-evicted, got %+v", s)
	}
	if s.IdleCores != 4 {
		t.Fatalf("want 4 idle cores, got %d", s.IdleCores)
	}
}

func TestSweepExpiresIdleSessions(t *testing.T) {
	h := newHarness(8)
	now := time.Unix(0, 0)
	var nowMu sync.Mutex
	clock := func() time.Time {
		nowMu.Lock()
		defer nowMu.Unlock()
		return now
	}
	p := newPool(t, h, func(c *Config[*fakeRes]) {
		c.TTL = time.Minute
		c.Now = clock
	})
	defer p.Close()

	l, _, err := acquireOrCreate(p, h.create, Key{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	if n := p.Sweep(); n != 0 {
		t.Fatalf("premature sweep evicted %d", n)
	}
	nowMu.Lock()
	now = now.Add(2 * time.Minute)
	nowMu.Unlock()
	if n := p.Sweep(); n != 1 {
		t.Fatalf("want 1 TTL eviction, got %d", n)
	}
	if s := p.Stats(); s.EvictedTTL != 1 || s.IdleSessions != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestAttachBoundAndLastReleaseIdles: a job attaches only to a busy
// session of its key, at most AttachDepth jobs per session, and the
// session stays busy until its last hold is released.
func TestAttachBoundAndLastReleaseIdles(t *testing.T) {
	h := newHarness(8)
	p := newPool(t, h, func(c *Config[*fakeRes]) { c.AttachDepth = 2 })
	defer p.Close()

	key := Key{Tenant: "a"}
	if _, _, ok := p.Acquire(key, 0); ok {
		t.Fatal("attach must fail with no busy session")
	}
	l, _, err := acquireOrCreate(p, h.create, key)
	if err != nil {
		t.Fatal(err)
	}
	if chip, ok := p.Offer(key); !ok || chip != 0 {
		t.Fatalf("busy session with attach room not offered: %v %v", chip, ok)
	}
	var attached []*Lease[*fakeRes]
	for i := 0; i < 2; i++ {
		la, batched, ok := p.Acquire(key, 0)
		if !ok || !batched {
			t.Fatalf("attach %d to busy session failed: batched=%v ok=%v", i, batched, ok)
		}
		if la.Resource() != l.Resource() {
			t.Fatal("attach landed on another session")
		}
		attached = append(attached, la)
	}
	if _, _, ok := p.Acquire(key, 0); ok {
		t.Fatal("attach beyond the bound must fail")
	}
	if _, ok := p.Offer(key); ok {
		t.Fatal("full busy session must not be offered")
	}
	l.Release()
	attached[0].Release()
	if s := p.Stats(); s.BusySessions != 1 || s.IdleSessions != 0 {
		t.Fatalf("session must stay busy while a hold remains: %+v", s)
	}
	attached[1].Release()
	if s := p.Stats(); s.BusySessions != 0 || s.IdleSessions != 1 || s.Batched != 2 {
		t.Fatalf("last release must idle the session: %+v", s)
	}
	// Idle now: the next job takes it warm, not batched.
	if _, batched, ok := p.Acquire(key, 0); !ok || batched {
		t.Fatalf("idle session not leased warm: batched=%v ok=%v", batched, ok)
	}
}

// TestFailDestroysAtLastRelease: a session a holder marked failed takes
// no further attaches and is destroyed, not pooled, at its last release.
func TestFailDestroysAtLastRelease(t *testing.T) {
	h := newHarness(8)
	p := newPool(t, h, nil)
	defer p.Close()

	key := Key{Tenant: "a"}
	l, _, err := acquireOrCreate(p, h.create, key)
	if err != nil {
		t.Fatal(err)
	}
	la, batched, ok := p.Acquire(key, 0)
	if !ok || !batched {
		t.Fatal("attach to busy session failed")
	}
	l.Fail()
	if _, _, ok := p.Acquire(key, 0); ok {
		t.Fatal("failed session must take no attaches")
	}
	l.Release()
	if s := p.Stats(); s.BusySessions != 1 {
		t.Fatalf("failed session must stay busy for its attached job: %+v", s)
	}
	la.Release()
	if s := p.Stats(); s.IdleSessions != 0 || s.BusySessions != 0 {
		t.Fatalf("failed session still resident: %+v", s)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.destroys != 1 {
		t.Fatalf("want 1 destroy, got %d", h.destroys)
	}
}

func TestCloseDestroysIdleAndRejectsAcquire(t *testing.T) {
	h := newHarness(8)
	p := newPool(t, h, nil)
	key := Key{Tenant: "a"}
	l, _, err := acquireOrCreate(p, h.create, key)
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := p.Acquire(key, 0); ok {
		t.Fatal("acquire on a closed pool succeeded")
	}
	if _, ok := p.Offer(key); ok {
		t.Fatal("closed pool offered a session")
	}
	_, res, err := h.create()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Add(key, 0, res, time.Now()); !errors.Is(err, core.ErrDestroyed) {
		t.Fatalf("want ErrDestroyed, got %v", err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.live) != 0 {
		t.Fatalf("%d resources leaked past Close", len(h.live))
	}
}

// TestChurnRace hammers Acquire/Add/Release/Fail/EvictIdle/Sweep from
// many goroutines under capacity pressure; run with -race. Every created
// resource must be destroyed exactly once, at the latest by Close.
func TestChurnRace(t *testing.T) {
	h := newHarness(6)
	p := newPool(t, h, func(c *Config[*fakeRes]) {
		c.MaxIdle = 4
		c.TTL = time.Millisecond
	})

	var handled atomic.Int64
	const goroutines = 8
	const rounds = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				key := Key{Tenant: fmt.Sprint(rng.Intn(4))}
				l, _, err := acquireOrCreate(p, h.create, key)
				if err != nil {
					if !errors.Is(err, core.ErrNoCapacity) {
						t.Errorf("acquire: %v", err)
						return
					}
					continue
				}
				handled.Add(1)
				if rng.Intn(32) == 0 {
					l.Fail()
				}
				l.Release()
				if rng.Intn(8) == 0 {
					p.EvictIdle(1)
				}
				if rng.Intn(16) == 0 {
					p.Sweep()
				}
			}
		}(g)
	}
	wg.Wait()
	if handled.Load() == 0 {
		t.Fatal("no work handled")
	}
	if s := p.Stats(); s.BusySessions != 0 {
		t.Fatalf("sessions still busy after every release: %+v", s)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.live) != 0 {
		t.Fatalf("%d resources leaked", len(h.live))
	}
}

// TestEvictionPrefersLowPriority: pressure eviction and the MaxIdle
// bound pick the lowest-class idle session first (LRU within a class),
// so high-priority warm pools survive low-priority churn.
func TestEvictionPrefersLowPriority(t *testing.T) {
	h := newHarness(3)
	prio := map[int]int{} // resource id -> class
	var prioMu sync.Mutex
	p := newPool(t, h, func(c *Config[*fakeRes]) {
		c.Priority = func(r *fakeRes) int {
			prioMu.Lock()
			defer prioMu.Unlock()
			return prio[r.id]
		}
	})
	defer p.Close()

	acquire := func(tenant string, class int) *Lease[*fakeRes] {
		t.Helper()
		l, _, err := acquireOrCreate(p, func() (int, *fakeRes, error) {
			chip, r, err := h.create()
			if err == nil {
				prioMu.Lock()
				prio[r.id] = class
				prioMu.Unlock()
			}
			return chip, r, err
		}, Key{Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	// Idle order (most recent first): highB, lowOld, highA — pure LRU
	// would evict highA; class-weighted eviction must evict lowOld.
	la := acquire("highA", 3)
	la.Release()
	lo := acquire("lowOld", 0)
	lo.Release()
	lb := acquire("highB", 3)
	lb.Release()

	// The backend is full: a fourth session needs a pressure eviction.
	lc := acquire("next", 2)
	lc.Release()
	if s := p.Stats(); s.EvictedPressure != 1 {
		t.Fatalf("want 1 pressure eviction, got %+v", s)
	}
	// Both high-class sessions survived; the low one is gone.
	if _, warm, _ := acquireOrCreate(p, h.create, Key{Tenant: "highA"}); !warm {
		t.Fatal("eviction took a high-class session instead of the low one")
	}
	if _, warm, _ := acquireOrCreate(p, h.create, Key{Tenant: "highB"}); !warm {
		t.Fatal("eviction took highB")
	}
	p.mu.Lock()
	_, lowAlive := p.byKey[Key{Tenant: "lowOld"}]
	p.mu.Unlock()
	if lowAlive {
		t.Fatal("low-class session survived the pressure eviction")
	}
}

// TestEvictionSamePriorityKeepsLRU: within one class the eviction order
// stays least-recently-used.
func TestEvictionSamePriorityKeepsLRU(t *testing.T) {
	h := newHarness(2)
	p := newPool(t, h, func(c *Config[*fakeRes]) {
		c.Priority = func(r *fakeRes) int { return 1 }
	})
	defer p.Close()

	la, _, err := acquireOrCreate(p, h.create, Key{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	lb, _, err := acquireOrCreate(p, h.create, Key{Tenant: "b"})
	if err != nil {
		t.Fatal(err)
	}
	la.Release()
	lb.Release()
	if n := p.EvictIdle(1); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	// "a" went idle first, so it must be the victim; "b" stays warm.
	if _, warm, _ := acquireOrCreate(p, h.create, Key{Tenant: "b"}); !warm {
		t.Fatal("same-class eviction was not LRU")
	}
}
