package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/vnpu-sim/vnpu"
)

const (
	warmChips   = 2
	warmTenants = 3
	// warmLimit is the latency limit on a rung's p99 sojourn; goodput is
	// the highest rung rate that meets it.
	warmLimit = 20 * time.Millisecond
	// warmMemo sizes the timing memo well above the key count.
	warmMemo = 1024
	// warmWindow is the closed loop's outstanding jobs in the capacity
	// phase: chips x the default 4 chip slots, as on serve-churn.
	warmWindow = 8
	// warmQueue is the admission depth. After a stall of the whole
	// process the open loop submits every arrival the stall delayed at
	// once: a 40 ms stall at 3000 jobs/s piles up 120, past the default
	// depth of 64, which then sheds jobs with ErrQueueFull. The rungs are
	// meant to measure latency, not admission control.
	warmQueue = 1024
	// warmSpanEvery samples the jobs a traced run keeps spans of: all
	// would be over a million spans and a trace file Perfetto loads
	// slowly.
	warmSpanEvery = 16
)

// warmRungs is the ladder of open-loop arrival rates (jobs/s), lowest
// first, each with its share of the measured window; the capacity phase
// gets the rest. warmRef indexes the reference rung, whose latencies are
// the workload's sojourn and time-to-start metrics, so it gets most of
// the window; the other rungs only tell goodput.
var (
	warmRungs = []struct{ rate, share float64 }{{1000, 0.05}, {2000, 0.5}, {3000, 0.05}}
	warmRef   = 1
)

// warmKey is one (tenant, model, shape) a resident session serves, and
// its weight in the traffic mix.
type warmKey struct {
	job    vnpu.Job
	weight int
}

func decodeJob(tenant string, blocks int, dim, kv int32, rows, cols int) vnpu.Job {
	cores := rows * cols
	return vnpu.Job{
		Tenant:   tenant,
		Model:    vnpu.DecodeModel(blocks, dim, kv),
		Topology: vnpu.Mesh(rows, cols),
		Options:  []vnpu.Option{vnpu.WithKVBuffer(vnpu.KVBufferBytesPerCore(blocks, dim, kv, cores))},
		Reusable: true,
	}
}

// warmKeys builds the session keys: per tenant, two SRAM-resident decode
// models and one weight-streaming one, each on a 2x2 vNPU. The weights
// give the streaming model a fifth of the jobs.
func warmKeys() []warmKey {
	var keys []warmKey
	for t := 0; t < warmTenants; t++ {
		tenant := fmt.Sprintf("tenant-%d", t)
		keys = append(keys,
			warmKey{job: decodeJob(tenant, 4, 512, 128, 2, 2), weight: 2},
			warmKey{job: decodeJob(tenant, 4, 512, 512, 2, 2), weight: 2},
			warmKey{job: decodeJob(tenant, 6, 512, 128, 2, 2), weight: 1},
		)
	}
	return keys
}

// rung is one fixed arrival rate of the ladder.
type rung struct {
	rate     float64
	recs     []*jobRec
	lateness []float64 // ms each submission ran behind its due time
	drain    time.Duration
}

// serveWarm drives a 2-chip cluster with session reuse and the memoized
// timing backend with open-loop Poisson arrivals, one rung of the rate
// ladder after another, then measures the warm path's capacity with a
// closed loop. Every key is served once, untimed, before timing starts,
// so measured jobs hit resident sessions.
func serveWarm(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var warmup, mixJobs []vnpu.Job
	for _, k := range warmKeys() {
		warmup = append(warmup, k.job)
		for i := 0; i < k.weight; i++ {
			mixJobs = append(mixJobs, k.job)
		}
	}
	setup := warmBoot{
		boot: func() (*vnpu.Cluster, error) {
			return bootCluster(cfg, warmChips, vnpu.WithSessionReuse(),
				vnpu.WithTimingBackend(vnpu.FastTimingBackend(warmMemo)),
				vnpu.WithQueueDepth(warmQueue))
		},
		jobs:   warmup,
		window: len(warmup),
	}
	c, setups, err := setup.repeat(out, setupBefore, true)
	if err != nil {
		return nil, fmt.Errorf("serve-warm: %w", err)
	}

	if cfg.tr != nil {
		cfg.tr.every = warmSpanEvery
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rng := rand.New(rand.NewSource(cfg.seed))
	mix := &deck{rng: rng, n: len(mixJobs)}
	g := newLoadGen(ctx, c, cfg.tr)
	rungs := make([]rung, len(warmRungs))
	capLen := cfg.seconds
	measured := 0 // jobs submitted in the measured window
	runtime.GC()
	heap := startHeapSampler(time.Second)
	before := c.Snapshot()
	begin := time.Now()
	unfinished := 0
	for i, w := range warmRungs {
		r := &rungs[i]
		r.rate = w.rate
		length := time.Duration(w.share * float64(cfg.seconds))
		capLen -= length
		start := time.Now()
		due, last := start, start
		end := start.Add(length)
		for {
			due = due.Add(time.Duration(rng.ExpFloat64() / w.rate * float64(time.Second)))
			if due.After(end) {
				break
			}
			job := mixJobs[mix.next()]
			g.waitUntil(due, func(rec *jobRec) { r.recs = append(r.recs, rec) })
			last = due
			rec := g.submit(due, job)
			r.lateness = append(r.lateness, ms(rec.submitted.Sub(due)))
			measured++
		}
		left := g.drain(time.Now().Add(drainLimit), func(rec *jobRec) { r.recs = append(r.recs, rec) })
		r.drain = time.Since(last)
		unfinished += left
		if left > 0 {
			break // the cluster is stuck; later phases would measure nothing
		}
	}
	// The capacity phase keeps only per-second completion counts: a
	// record per job would make the benchmark's own heap the largest
	// part of peak_heap_mb.
	capOK, capSubmitted := 0, 0
	capacity := newRateSlots(time.Now(), capLen, time.Second)
	if unfinished == 0 {
		count := func(rec *jobRec) {
			if rec.err == nil {
				capOK++
				capacity.add(rec.done)
			}
		}
		next := func() vnpu.Job { return mixJobs[mix.next()] }
		capSubmitted = g.closedLoop(warmWindow, capacity.end(), next, count)
		measured += capSubmitted
		unfinished += g.drain(capacity.end().Add(drainLimit), count)
	}
	elapsed := time.Since(begin)
	after := c.Snapshot()
	out.e2e["peak_heap_mb"] = heap.peakMB()
	cancel()
	if cfg.tr != nil {
		attribution(out, c, cfg.tr.epoch, "cluster serve-warm")
	}
	closed, err := closeCluster(c, drainLimit)
	switch {
	case err != nil:
		return nil, fmt.Errorf("serve-warm: close: %w", err)
	case closed:
		checkReleased(out, c, "serve-warm")
	default:
		out.check(unfinished > 0, "serve-warm: Close did not return although every job finished")
	}
	_, more, err := setup.repeat(out, setupAfter, false)
	if err != nil {
		return nil, fmt.Errorf("serve-warm: %w", err)
	}
	out.setSetup(append(setups, more...))

	completed := capOK
	var goodput float64
	var late []float64
	for i := range rungs {
		r := &rungs[i]
		ok := 0
		for _, rec := range r.recs {
			if rec.err == nil {
				ok++
			}
		}
		completed += ok
		late = append(late, r.lateness...)
		sojourn, _ := latencies(r.recs)
		tail := windowed(sojourn, p99)
		meets := ok == len(r.lateness) && r.drain <= warmLimit && tail <= ms(warmLimit)
		if meets {
			goodput = r.rate
		}
		out.report[fmt.Sprintf("rung_%04.0f_per_s", r.rate)] = fmt.Sprintf("%d/%d ok, sojourn %s, drain %.3g ms, meets %s limit: %v",
			ok, len(r.lateness), summary(sojourn, "ms"), ms(r.drain), warmLimit, meets)
	}
	out.attempted += measured
	out.failed += measured - completed
	for k, n := range g.fails {
		out.fails[k] += n
	}
	if unfinished > 0 {
		out.fails[fmt.Sprintf("unfinished %s after the phase's last submission", drainLimit)] += unfinished
	}
	ref := rungs[warmRef]
	sojourn, start := latencies(ref.recs)
	out.putLatencies(sojourn, start)
	out.put("goodput_jobs_per_s", goodput, "jobs/s")
	out.putDist("gen.late", late, "ms")
	out.report["capacity"] = fmt.Sprintf("%d/%d ok, %.6g jobs/s", capOK, capSubmitted, capacity.rate())
	out.e2e["jobs_per_s"] = capacity.rate()
	out.e2e["sojourn_p50_ms"] = windowed(sojourn, median)
	out.cost = ratio(1, out.e2e["jobs_per_s"])
	out.e2e["completed_frac"] = ratio(float64(out.attempted-out.failed), float64(out.attempted))
	layerDelta(out, before, after, elapsed)
	out.layer["bench.submit_us"] = ratio(us(g.submitT), float64(g.ids))
	out.layer["gen.late_ms"] = p99(late)
	return out, nil
}
