package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/vnpu-sim/vnpu"
	"github.com/vnpu-sim/vnpu/internal/obs/slo"
)

// drainLimit is the per-run deadline after the last submission: jobs
// still unfinished then count as failed, so a job parked forever shows
// up in completed_frac instead of hanging the run.
const drainLimit = 20 * time.Second

// jobRec is one submitted cluster job as the benchmark saw it.
type jobRec struct {
	id        uint64
	due       time.Time // when the job was due to be submitted
	submitted time.Time // when Submit returned
	done      time.Time
	queueWait time.Duration
	rep       vnpu.JobReport
	err       error
}

// loadGen submits jobs from one goroutine and observes each completion
// on its own waiter goroutine, so a slow job never delays the timestamp
// of a job that finished after it was submitted but before it finished.
type loadGen struct {
	ctx     context.Context
	c       *vnpu.Cluster
	tr      *tracer
	done    chan *jobRec
	pending int
	ids     uint64 // jobs submitted so far; the last one's id
	submitT time.Duration
	fails   failures
}

func newLoadGen(ctx context.Context, c *vnpu.Cluster, tr *tracer) *loadGen {
	// The buffer lets a waiter hand its completion over without waiting
	// for the generator, which drains it between submissions.
	return &loadGen{ctx: ctx, c: c, tr: tr, done: make(chan *jobRec, 1<<16), fails: failures{}}
}

// submit hands one job, due at due, to the cluster. A refused
// submission completes at once with its error.
func (g *loadGen) submit(due time.Time, job vnpu.Job) *jobRec {
	g.ids++
	rec := &jobRec{id: g.ids, due: due}
	t0 := time.Now()
	h, err := g.c.Submit(g.ctx, job)
	rec.submitted = time.Now()
	g.submitT += rec.submitted.Sub(t0)
	g.tr.add("cluster.submit", rec.id, t0)
	g.pending++
	if err != nil {
		rec.err, rec.done = err, rec.submitted
		g.done <- rec
		return rec
	}
	go func() {
		<-h.Done()
		rec.done = time.Now()
		rec.rep, rec.err = h.Wait(g.ctx)
		rec.queueWait = h.QueueWait()
		g.tr.add("cluster.wait", rec.id, rec.submitted)
		g.tr.add("job", rec.id, rec.due)
		g.done <- rec
	}()
	return rec
}

// closedLoop keeps window jobs outstanding until end, submitting the
// jobs next returns, and hands every completion to sink. It returns how
// many jobs it submitted; the last ones are still pending.
func (g *loadGen) closedLoop(window int, end time.Time, next func() vnpu.Job, sink func(*jobRec)) int {
	n := 0
	for time.Now().Before(end) {
		for g.pending < window {
			g.submit(time.Now(), next())
			n++
		}
		if rec := g.next(end); rec != nil {
			sink(rec)
		}
	}
	return n
}

// next waits for the next completion, or returns nil once until passes.
func (g *loadGen) next(until time.Time) *jobRec {
	if g.pending == 0 {
		return nil
	}
	t := time.NewTimer(time.Until(until))
	defer t.Stop()
	select {
	case rec := <-g.done:
		g.pending--
		if rec.err != nil {
			g.fails.add(rec.err)
		}
		return rec
	case <-t.C:
		return nil
	}
}

// timerSlack covers the runtime timer's wake-up granularity: blocking
// waits end this long before a due time, and the rest is spent yielding.
const timerSlack = 2 * time.Millisecond

// waitUntil returns at the due time, collecting completions meanwhile.
// It blocks while the due time is far and then yields the processor in
// a loop, so submissions are not late by the timer's granularity.
func (g *loadGen) waitUntil(due time.Time, sink func(*jobRec)) {
	for time.Until(due) > timerSlack {
		if rec := g.next(due.Add(-timerSlack)); rec != nil {
			sink(rec)
		} else if g.pending == 0 {
			time.Sleep(time.Until(due) - timerSlack)
		}
	}
	for time.Now().Before(due) {
		select {
		case rec := <-g.done:
			g.pending--
			if rec.err != nil {
				g.fails.add(rec.err)
			}
			sink(rec)
		default:
			runtime.Gosched()
		}
	}
}

// drain collects completions until none are pending or until passes; it
// returns how many jobs were still unfinished.
func (g *loadGen) drain(until time.Time, sink func(*jobRec)) int {
	for g.pending > 0 {
		rec := g.next(until)
		if rec == nil {
			break
		}
		sink(rec)
	}
	return g.pending
}

// warmBoot is a cluster workload's set-up: boot a cluster, then serve
// warm-up jobs through it in a closed loop.
type warmBoot struct {
	boot   func() (*vnpu.Cluster, error)
	jobs   []vnpu.Job
	window int
}

// repeat runs the set-up n times, timing each, and closes each cluster
// except, with keep, the last one, which it returns open.
func (w warmBoot) repeat(out *outcome, n int, keep bool) (*vnpu.Cluster, []float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		c, err := w.boot()
		if err != nil {
			return nil, nil, err
		}
		if err := runWarmup(out, c, w.jobs, w.window); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if keep && i == n-1 {
			return c, times, nil
		}
		if closed, err := closeCluster(c, drainLimit); !closed || err != nil {
			return nil, nil, fmt.Errorf("close after warm-up: closed %v, %v", closed, err)
		}
		checkReleased(out, c, "warm-up")
	}
	return nil, times, nil
}

// runWarmup runs jobs in a closed loop of the given window. Failed
// warm-up jobs count as attempted and failed in out; a job unfinished
// after drainLimit fails the run.
func runWarmup(out *outcome, c *vnpu.Cluster, jobs []vnpu.Job, window int) error {
	g := newLoadGen(context.Background(), c, nil)
	far := time.Now().Add(drainLimit)
	failed := func(r *jobRec) {
		if r.err != nil {
			out.failed++
			out.fails.add(r.err)
		}
	}
	for _, j := range jobs {
		if g.pending >= window {
			if r := g.next(far); r != nil {
				failed(r)
			}
		}
		g.submit(time.Now(), j)
		out.attempted++
	}
	if left := g.drain(far, failed); left > 0 {
		return fmt.Errorf("%d warm-up jobs unfinished after %s", left, drainLimit)
	}
	return nil
}

// closeCluster closes c, giving up after limit (a job parked forever
// makes Close wait forever). It reports whether Close returned.
func closeCluster(c *vnpu.Cluster, limit time.Duration) (bool, error) {
	errc := make(chan error, 1)
	go func() { errc <- c.Close() }()
	select {
	case err := <-errc:
		return true, err
	case <-time.After(limit):
		return false, nil
	}
}

// checkReleased checks that a closed cluster holds no cores.
func checkReleased(out *outcome, c *vnpu.Cluster, what string) {
	for chip, u := range c.Utilization() {
		out.check(u == 0, "%s: chip %d still has %.1f%% of its cores allocated after Close", what, chip, u*100)
	}
}

// layerDelta fills the per-layer metrics of the cluster's layers from
// the counter snapshots taken around the measured window.
func layerDelta(out *outcome, before, after vnpu.ClusterSnapshot, elapsed time.Duration) {
	p0, p1 := before.Placement, after.Placement
	hits, misses := float64(p1.CacheHits-p0.CacheHits), float64(p1.CacheMisses-p0.CacheMisses)
	out.layer["place.cache_hit_rate"] = ratio(hits, hits+misses)
	out.layer["place.decision_us"] = ratio(us(p1.PlaceTime-p0.PlaceTime), float64(p1.Placements-p0.Placements))
	out.layer["place.map_us"] = ratio(us(p1.MapTime-p0.MapTime), misses)
	out.layer["place.map_s"] = (p1.MapTime - p0.MapTime).Seconds()
	out.layer["place.async_maps"] = float64(p1.AsyncMaps - p0.AsyncMaps)
	out.layer["place.neg_hits"] = float64(p1.NegHits - p0.NegHits)
	out.layer["place.prewarm_hit_rate"] = ratio(float64(p1.PrewarmHits-p0.PrewarmHits), float64(p1.PrewarmRuns-p0.PrewarmRuns))

	c0, c1 := before.Cluster, after.Cluster
	out.layer["sched.hits_first_frac"] = ratio(float64(c1.HitsFirst-c0.HitsFirst), float64(c1.Submitted-c0.Submitted))
	out.layer["sched.map_parked"] = float64(c1.MapParked - c0.MapParked)
	out.layer["cluster.exec_overlap_avg"] = c1.ExecOverlapAvg
	var busy time.Duration
	for i := range c1.ChipBusy {
		busy += c1.ChipBusy[i] - c0.ChipBusy[i]
	}
	out.layer["cluster.chip_busy_frac"] = ratio(busy.Seconds(), elapsed.Seconds()*float64(len(c1.ChipBusy)))

	s0, s1 := before.Sessions, after.Sessions
	warm, cold, batched := float64(s1.WarmHits-s0.WarmHits), float64(s1.ColdCreates-s0.ColdCreates), float64(s1.Batched-s0.Batched)
	out.layer["session.warm_hit_rate"] = ratio(warm, warm+cold+batched)
	out.layer["session.batched_frac"] = ratio(batched, warm+cold+batched)
	out.layer["session.cold_creates"] = cold
	out.layer["session.warm_acquire_us"] = ratio(us(s1.WarmTime-s0.WarmTime), warm)
	out.layer["session.cold_acquire_us"] = ratio(us(s1.ColdTime-s0.ColdTime), cold)
	out.layer["session.evicted"] = float64(s1.Evicted() - s0.Evicted())

	t0, t1 := before.Timing, after.Timing
	mh, mm := float64(t1.Hits-t0.Hits), float64(t1.Misses-t0.Misses)
	out.layer["timing.memo_hit_rate"] = ratio(mh, mh+mm)
	out.layer["timing.memo_misses"] = mm
}

// attribution fills the attr.* shares and the trace export of a traced
// cluster run.
func attribution(out *outcome, c *vnpu.Cluster, epoch time.Time, name string) {
	a, ok := c.Attribution()
	if !ok {
		return
	}
	attrShares(out, a)
	out.layer["obs.trace_dropped"] = float64(c.TraceDropped())
	out.lifecycle = append(out.lifecycle, lifecycleTrack{
		name: name, origin: epoch, events: c.TraceSnapshot(), dropped: c.TraceDropped(),
	})
}

// latencies returns the sojourn (due to done) and time-to-start samples
// of the completed jobs, in milliseconds.
func latencies(recs []*jobRec) (sojourn, start []float64) {
	for _, r := range recs {
		if r.err == nil {
			sojourn = append(sojourn, ms(r.done.Sub(r.due)))
			start = append(start, ms(r.queueWait))
		}
	}
	return sojourn, start
}

// bootCluster boots a cluster with tracing on when the run is traced.
func bootCluster(cfg runConfig, chips int, opts ...vnpu.ClusterOption) (*vnpu.Cluster, error) {
	if cfg.tr != nil {
		opts = append(opts, vnpu.WithTracing())
	}
	c, err := vnpu.NewCluster(vnpu.SimConfig(), chips, opts...)
	if err != nil {
		return nil, fmt.Errorf("boot cluster: %w", err)
	}
	return c, nil
}

// attrShares fills the attr.* metrics from a critical-path report: each
// segment's share of all attributed sojourn time.
func attrShares(out *outcome, a slo.Attribution) {
	names := map[string]string{
		"queue-wait": "attr.queue_wait_share",
		"map-park":   "attr.map_park_share",
		"batching":   "attr.batching_share",
		"execution":  "attr.execution_share",
	}
	for _, s := range a.Segments {
		if name, ok := names[s.Segment]; ok {
			out.layer[name] = s.Share
		}
	}
}
