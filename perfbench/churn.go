package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/vnpu-sim/vnpu"
)

// churnModels are SRAM-resident models: a job's weights load once, so
// each job's cost is dominated by create, place, run and destroy.
var churnModels = []string{"resnet18", "mobilenet", "yololite", "transformer"}

// churnShapes are the requested vNPU topologies.
var churnShapes = []func() *vnpu.Topology{
	func() *vnpu.Topology { return vnpu.Mesh(2, 2) },
	func() *vnpu.Topology { return vnpu.Mesh(2, 3) },
	func() *vnpu.Topology { return vnpu.Mesh(3, 3) },
	func() *vnpu.Topology { return vnpu.Mesh(2, 4) },
	func() *vnpu.Topology { return vnpu.Chain(3) },
	func() *vnpu.Topology { return vnpu.Chain(6) },
	func() *vnpu.Topology { return vnpu.NearMesh(5) },
	func() *vnpu.Topology { return vnpu.NearMesh(7) },
}

const (
	churnChips   = 2
	churnWindow  = 8 // outstanding jobs: chips x the default 4 chip slots
	churnTenants = 8
)

// A workload's set-up runs setupBefore times before its measured window
// and setupAfter times after it, and setup_s is the median. Splitting
// them keeps one short slow spell of the host from setting every sample.
const (
	setupBefore = 16
	setupAfter  = 15
)

// serveChurn runs a closed loop of one-shot jobs against a 2-chip
// cluster with default options: every job creates, places, runs and
// destroys a vNPU on a churning free set.
func serveChurn(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	models := make([]vnpu.Model, len(churnModels))
	for i, name := range churnModels {
		m, err := vnpu.ModelByName(name)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	job := func(model, shape, tenant int) vnpu.Job {
		return vnpu.Job{
			Tenant:   fmt.Sprintf("tenant-%d", tenant),
			Model:    models[model],
			Topology: churnShapes[shape](),
		}
	}
	var warmup []vnpu.Job
	for m := range models {
		for s := range churnShapes {
			warmup = append(warmup, job(m, s, 0))
		}
	}

	// Set-up is a boot plus one closed-loop pass over every (model,
	// shape). It runs setupBefore times before the measured window, the
	// last cluster being the one measured, and setupAfter times after it.
	setup := warmBoot{
		boot:   func() (*vnpu.Cluster, error) { return bootCluster(cfg, churnChips) },
		jobs:   warmup,
		window: churnWindow,
	}
	c, setups, err := setup.repeat(out, setupBefore, true)
	if err != nil {
		return nil, fmt.Errorf("serve-churn: %w", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rng := rand.New(rand.NewSource(cfg.seed))
	mix := &deck{rng: rng, n: len(models) * len(churnShapes)}
	g := newLoadGen(ctx, c, cfg.tr)
	var recs []*jobRec
	var cycles int64
	var rates *rateSlots
	collect := func(r *jobRec) {
		recs = append(recs, r)
		cycles += r.rep.Cycles
		if r.err == nil {
			rates.add(r.done)
		}
	}
	next := func() vnpu.Job {
		k := mix.next()
		return job(k/len(churnShapes), k%len(churnShapes), rng.Intn(churnTenants))
	}
	runtime.GC()
	heap := startHeapSampler(time.Second)
	before := c.Snapshot()
	begin := time.Now()
	rates = newRateSlots(begin, cfg.seconds, 2*time.Second)
	stop := rates.end()
	out.attempted += g.closedLoop(churnWindow, stop, next, collect)
	unfinished := g.drain(stop.Add(drainLimit), collect)
	elapsed := time.Since(begin)
	after := c.Snapshot()
	out.e2e["peak_heap_mb"] = heap.peakMB()
	cancel()
	if cfg.tr != nil {
		attribution(out, c, cfg.tr.epoch, "cluster serve-churn")
	}
	closed, err := closeCluster(c, drainLimit)
	switch {
	case err != nil:
		return nil, fmt.Errorf("serve-churn: close: %w", err)
	case closed:
		checkReleased(out, c, "serve-churn")
	default:
		out.check(unfinished > 0, "serve-churn: Close did not return although every job finished")
	}
	_, more, err := setup.repeat(out, setupAfter, false)
	if err != nil {
		return nil, fmt.Errorf("serve-churn: %w", err)
	}
	out.setSetup(append(setups, more...))

	completed := 0
	for _, r := range recs {
		if r.err == nil {
			completed++
		}
	}
	out.failed += len(recs) - completed + unfinished
	for k, n := range g.fails {
		out.fails[k] += n
	}
	if unfinished > 0 {
		out.fails[fmt.Sprintf("unfinished %s after the last submission", drainLimit)] += unfinished
	}
	sojourn, start := latencies(recs)
	out.putLatencies(sojourn, start)
	out.put("sim_mcycles_per_s", float64(cycles)/1e6/elapsed.Seconds(), "Mcycles/s")
	out.put("jobs_per_s_whole_run", float64(completed)/elapsed.Seconds(), "jobs/s")
	out.e2e["jobs_per_s"] = rates.rate()
	out.cost = ratio(1, out.e2e["jobs_per_s"])
	out.e2e["sojourn_p50_ms"] = windowed(sojourn, median)
	out.e2e["completed_frac"] = ratio(float64(out.attempted-out.failed), float64(out.attempted))
	layerDelta(out, before, after, elapsed)
	out.layer["bench.submit_us"] = ratio(us(g.submitT), float64(g.ids))
	return out, nil
}
