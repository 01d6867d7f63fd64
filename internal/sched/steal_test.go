package sched

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/vnpu-sim/vnpu/internal/core"
)

// TestStealTakesBackOfPopOrder: Steal removes queued jobs at or below
// the class bound, back of the pop order first, releasing their quota
// slots and un-booking their admissions; the stolen handles stay live
// and resolve when the thief finishes them.
func TestStealTakesBackOfPopOrder(t *testing.T) {
	exec := &fakeExec{free: []int{1}}
	d := newTestDispatcher(t, exec, Config{Chips: 1, Classes: 2, TenantQuota: 3})
	defer d.Close()

	// Occupy the only chip so everything after queues.
	block := make(chan struct{})
	blocker, err := d.Submit(context.Background(), "a", 1, time.Time{}, &fakeJob{name: "blocker", size: 1, block: block})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.Started()

	be1, err := d.Submit(context.Background(), "a", 0, time.Time{}, &fakeJob{name: "be1", size: 1})
	if err != nil {
		t.Fatal(err)
	}
	be2, err := d.Submit(context.Background(), "a", 0, time.Time{}, &fakeJob{name: "be2", size: 1})
	if err != nil {
		t.Fatal(err)
	}
	n1, err := d.Submit(context.Background(), "b", 1, time.Time{}, &fakeJob{name: "n1", size: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Tenant "a" is at quota (blocker + be1 + be2).
	if _, err := d.Submit(context.Background(), "a", 0, time.Time{}, &fakeJob{size: 1}); !errors.Is(err, core.ErrQuotaExceeded) {
		t.Fatalf("4th submit for tenant a: got %v, want ErrQuotaExceeded", err)
	}

	stolen := d.Steal(0, 10, nil)
	if len(stolen) != 2 {
		t.Fatalf("stole %d jobs, want the 2 best-effort ones", len(stolen))
	}
	// Back of the pop order first: be2 before be1; n1 (class 1) stays.
	if stolen[0].Job.name != "be2" || stolen[1].Job.name != "be1" {
		t.Fatalf("stole %q then %q, want be2 then be1", stolen[0].Job.name, stolen[1].Job.name)
	}
	if stolen[0].Tenant != "a" || stolen[0].Class != 0 {
		t.Fatalf("stolen meta = %q/%d, want a/0", stolen[0].Tenant, stolen[0].Class)
	}

	// The quota slots came back: tenant "a" can submit again.
	extra, err := d.Submit(context.Background(), "a", 0, time.Time{}, &fakeJob{name: "extra", size: 1})
	if err != nil {
		t.Fatalf("submit after steal: %v", err)
	}

	s := d.Stats()
	if s.Stolen != 2 {
		t.Fatalf("Stolen = %d, want 2", s.Stolen)
	}
	// blocker + n1 + extra remain booked (be1/be2 un-booked).
	if s.Submitted != 3 {
		t.Fatalf("Submitted = %d after steal, want 3", s.Submitted)
	}

	// The thief owns the stolen handles: finishing them resolves the
	// submitters' Waits.
	for _, st := range stolen {
		st.Handle.Finish("elsewhere", nil)
	}
	for _, h := range []*Handle[string]{be1, be2} {
		if res, err := h.Wait(context.Background()); err != nil || res != "elsewhere" {
			t.Fatalf("stolen handle resolved to %q/%v", res, err)
		}
	}

	close(block)
	for _, h := range []*Handle[string]{blocker, n1, extra} {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStealRespectsClassBoundAndEmptyQueue: nothing at or below the
// bound (or nothing queued at all) steals nothing.
func TestStealRespectsClassBoundAndEmptyQueue(t *testing.T) {
	exec := &fakeExec{free: []int{1}}
	d := newTestDispatcher(t, exec, Config{Chips: 1, Classes: 2})
	defer d.Close()

	if got := d.Steal(1, 10, nil); len(got) != 0 {
		t.Fatalf("stole %d from an empty queue", len(got))
	}

	block := make(chan struct{})
	blocker, err := d.Submit(context.Background(), "a", 1, time.Time{}, &fakeJob{size: 1, block: block})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.Started()
	queued, err := d.Submit(context.Background(), "a", 1, time.Time{}, &fakeJob{size: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Steal(0, 10, nil); len(got) != 0 {
		t.Fatalf("stole %d class-1 jobs under a class-0 bound", len(got))
	}
	close(block)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestStealSkipsPinnedJobs: jobs the pinned predicate reports stay
// queued on their dispatcher.
func TestStealSkipsPinnedJobs(t *testing.T) {
	exec := &fakeExec{free: []int{1}}
	d := newTestDispatcher(t, exec, Config{Chips: 1})
	defer d.Close()

	block := make(chan struct{})
	blocker, err := d.Submit(context.Background(), "a", 0, time.Time{}, &fakeJob{name: "blocker", size: 1, block: block})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.Started()
	pinned, err := d.Submit(context.Background(), "a", 0, time.Time{}, &fakeJob{name: "pinned", size: 1})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := d.Submit(context.Background(), "a", 0, time.Time{}, &fakeJob{name: "loose", size: 1})
	if err != nil {
		t.Fatal(err)
	}
	stolen := d.Steal(0, 10, func(j *fakeJob) bool { return j.name == "pinned" })
	if len(stolen) != 1 || stolen[0].Job.name != "loose" {
		t.Fatalf("stole %d jobs, want only the unpinned one", len(stolen))
	}
	stolen[0].Handle.Finish("elsewhere", nil)
	close(block)
	for _, h := range []*Handle[string]{blocker, pinned, loose} {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
