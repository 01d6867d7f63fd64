package vnpu

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestFleetSessionAffinity: a reusable job's submissions all land on the
// shard that owns its key, and repeats run warm there.
func TestFleetSessionAffinity(t *testing.T) {
	f, err := NewFleet(FPGAConfig(), 3, 1, WithSessionReuse())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	job := Job{Tenant: "llm", Model: mustModel(t, "mobilenet"), Topology: Chain(2), Reusable: true}
	owner := -1
	warm := 0
	for i := 0; i < 8; i++ {
		h, err := f.Submit(context.Background(), job)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if owner < 0 {
			owner = h.Shard()
		} else if h.Shard() != owner {
			t.Fatalf("submit %d landed on shard %d, want owner %d", i, h.Shard(), owner)
		}
		rep, err := h.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if rep.Warm {
			warm++
		}
	}
	if warm == 0 {
		t.Fatal("no warm hits across 8 affine submissions")
	}
	s := f.Stats()
	total := uint64(0)
	for _, cs := range s.Shards {
		total += cs.Completed
	}
	if total != 8 {
		t.Fatalf("fleet completed %d jobs, want 8", total)
	}
}

// TestFleetDrainRejoinTyped: draining re-homes the shard's keys, double
// drain and full drain fail typed, and rejoin brings the shard (and its
// keys) back.
func TestFleetDrainRejoinTyped(t *testing.T) {
	f, err := NewFleet(FPGAConfig(), 2, 1, WithSessionReuse())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()

	job := Job{Tenant: "a", Model: mustModel(t, "mobilenet"), Topology: Chain(2), Reusable: true}
	h, err := f.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	owner := h.Shard()
	if _, err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	if err := f.Drain(ctx, owner); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := f.Drain(ctx, owner); !errors.Is(err, ErrShardDraining) {
		t.Fatalf("double drain: got %v, want ErrShardDraining", err)
	}
	// The drained shard holds nothing and its warm pool is flushed.
	for i, u := range f.Shard(owner).Utilization() {
		if u != 0 {
			t.Fatalf("drained shard chip %d still %.0f%% utilized", i, u*100)
		}
	}
	// The key re-homed: submissions keep working on the other shard.
	h2, err := f.Submit(ctx, job)
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	if h2.Shard() == owner {
		t.Fatalf("re-homed job landed on the drained shard %d", owner)
	}
	if _, err := h2.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	other := h2.Shard()
	if err := f.Drain(ctx, other); err != nil {
		t.Fatalf("drain last shard: %v", err)
	}
	if _, err := f.Submit(ctx, job); !errors.Is(err, ErrNoActiveShards) {
		t.Fatalf("submit with all shards drained: got %v, want ErrNoActiveShards", err)
	}

	if err := f.Rejoin(owner); err != nil {
		t.Fatal(err)
	}
	if err := f.Rejoin(owner); err == nil {
		t.Fatal("double rejoin succeeded")
	}
	h3, err := f.Submit(ctx, job)
	if err != nil {
		t.Fatalf("submit after rejoin: %v", err)
	}
	if h3.Shard() != owner {
		t.Fatalf("after rejoin job landed on %d, want the rejoined owner %d", h3.Shard(), owner)
	}
	if _, err := h3.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Drains != 2 || s.Rejoins != 1 {
		t.Fatalf("Drains/Rejoins = %d/%d, want 2/1", s.Drains, s.Rejoins)
	}
}

// TestFleetChurn: concurrent mixed-tenant submissions while shards drain
// and rejoin under them. The invariant is zero lost jobs — every
// accepted handle resolves (success or typed failure), and every refused
// submission failed with a typed admission error.
func TestFleetChurn(t *testing.T) {
	f, err := NewFleet(FPGAConfig(), 3, 1, WithSessionReuse(), WithQueueDepth(64))
	if err != nil {
		t.Fatal(err)
	}
	model := mustModel(t, "mobilenet")

	const workers, perWorker = 4, 60
	var mu sync.Mutex
	var handles []*FleetHandle
	var refused []error
	var wg sync.WaitGroup
	tenants := []string{"llm", "vision", "batch", "mobile"}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				job := Job{
					Tenant:   tenants[w],
					Model:    model,
					Topology: Chain(2),
					Reusable: i%2 == 0,
				}
				if i%5 == 0 {
					job.Priority = PriorityBestEffort
				}
				h, err := f.Submit(context.Background(), job)
				mu.Lock()
				if err != nil {
					refused = append(refused, err)
				} else {
					handles = append(handles, h)
				}
				mu.Unlock()
			}
		}(w)
	}

	// Churn membership under the load: drain and rejoin each shard twice.
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		for s := 0; s < f.NumShards(); s++ {
			if err := f.Drain(ctx, s); err != nil {
				t.Errorf("drain %d round %d: %v", s, round, err)
				continue
			}
			if err := f.Rejoin(s); err != nil {
				t.Errorf("rejoin %d round %d: %v", s, round, err)
			}
		}
	}
	wg.Wait()

	waitCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	resolved, failed := 0, 0
	for i, h := range handles {
		_, err := h.Wait(waitCtx)
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("handle %d never resolved: a job was lost", i)
		}
		resolved++
		if err != nil {
			failed++
			// Any failure must be typed, not a drop.
			if !errors.Is(err, ErrNoActiveShards) && !errors.Is(err, ErrShardDraining) &&
				!errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrNoCapacity) &&
				!errors.Is(err, ErrDeadlineExceeded) && !errors.Is(err, ErrQuotaExceeded) {
				t.Errorf("handle %d failed untyped: %v", i, err)
			}
		}
	}
	for _, err := range refused {
		if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrNoActiveShards) &&
			!errors.Is(err, ErrQuotaExceeded) {
			t.Errorf("refused submission with untyped error: %v", err)
		}
	}
	if resolved != len(handles) {
		t.Fatalf("resolved %d of %d handles", resolved, len(handles))
	}
	t.Logf("churn: %d accepted (%d failed typed), %d refused typed, stats %+v",
		len(handles), failed, len(refused), f.Stats())
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(context.Background(), Job{Tenant: "x", Model: model, Topology: Chain(2)}); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("submit after close: got %v, want ErrDestroyed", err)
	}
}

// TestFleetDrainRehomesQueuedSessionJob: draining a shard re-homes its
// queued session-keyed jobs too — one queued behind a job holding the
// shard's only chip completes on the other shard while the drained one
// is still blocked. (The stealer, unlike Drain, leaves session-keyed jobs
// on their owner shard.)
func TestFleetDrainRehomesQueuedSessionJob(t *testing.T) {
	f, err := NewFleet(FPGAConfig(), 2, 1, WithSessionReuse())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gates := []chan struct{}{make(chan struct{}), make(chan struct{})}
	for i := range gates {
		gate := gates[i]
		f.Shard(i).testExecHook = func(int) { <-gate }
	}
	ctx := context.Background()
	whole := func(tenant string) Job {
		return Job{Tenant: tenant, Model: mustModel(t, "mobilenet"), Topology: Mesh(2, 4), Reusable: true}
	}

	// Hold the owner shard's only chip.
	holder, err := f.Submit(ctx, whole("a"))
	if err != nil {
		t.Fatal(err)
	}
	owner := holder.Shard()
	<-holder.Started()
	other := 1 - owner
	close(gates[other])

	// A session job whose key the owner shard also owns: the first parks
	// as the dispatcher's head, the second queues behind it.
	var queued Job
	for i := 0; ; i++ {
		queued = whole(fmt.Sprintf("b%d", i))
		key, _ := routeKey(queued)
		if s, _ := f.router.Owner(key); s == owner {
			break
		}
	}
	head, err := f.Submit(ctx, queued)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := f.Submit(ctx, queued)
	if err != nil {
		t.Fatal(err)
	}
	if head.Shard() != owner || tail.Shard() != owner {
		t.Fatalf("session jobs landed on shards %d/%d, want owner %d", head.Shard(), tail.Shard(), owner)
	}

	drained := make(chan error, 1)
	go func() { drained <- f.Drain(ctx, owner) }()
	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	rep, err := tail.Wait(waitCtx)
	if err != nil {
		t.Fatalf("queued session job did not complete off the draining shard: %v", err)
	}
	if s := f.Stats(); s.ReHomed == 0 {
		t.Fatalf("no job re-homed: %+v", s)
	}
	if rep.Chip != 0 || f.Shard(other).Stats().Completed == 0 {
		t.Fatalf("re-homed job did not run on shard %d: %+v", other, f.Shard(other).Stats())
	}

	close(gates[owner])
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, h := range []*FleetHandle{holder, head} {
		if _, err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
}
