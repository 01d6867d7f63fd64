package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/vnpu-sim/vnpu"
)

// simCase is one sim-stream job: a weight-streaming model run on a 3x4
// vNPU of a freshly booted sim chip.
type simCase struct {
	model string
	iters int
	// cycles is the simulated makespan the model produced when the
	// benchmark was written. The model has no hardware reference, so
	// this checks that the simulator is unchanged, not that it is right.
	cycles int64
}

var simCases = []simCase{
	{"gpt2-small", 1, 45190639},
	{"gpt2-small", 8, 73698481},
	{"alexnet", 1, 32909232},
	{"alexnet", 8, 171372006},
	{"googlenet", 1, 16762511},
	{"googlenet", 8, 45046961},
	{"resnet34", 1, 12904115},
	{"resnet34", 8, 39054539},
}

// simTimes is one sim-stream job's host time per layer call.
type simTimes struct {
	boot, create, compile, run, total time.Duration
	cycles                            int64
}

// runSimCase runs one case on a fresh System, timing each layer call.
func runSimCase(ctx context.Context, tr *tracer, job uint64, c simCase) (simTimes, error) {
	var t simTimes
	m, err := vnpu.ModelByName(c.model)
	if err != nil {
		return t, err
	}
	t0 := time.Now()
	sys, err := vnpu.NewSystem(vnpu.SimConfig())
	if err != nil {
		return t, err
	}
	tr.add("npu.boot", job, t0)
	t1 := time.Now()
	mem, err := sys.ModelMemoryBytes(m, 12)
	if err != nil {
		return t, err
	}
	v, err := sys.Create(vnpu.NewRequest(vnpu.Mesh(3, 4), vnpu.WithMemory(mem)))
	if err != nil {
		return t, err
	}
	tr.add("core.create", job, t1)
	t2 := time.Now()
	cm, err := sys.CompileFor(v, m)
	if err != nil {
		return t, err
	}
	tr.add("workload.compile", job, t2)
	t3 := time.Now()
	rep, err := sys.RunCompiled(ctx, v, cm, c.iters)
	if err != nil {
		return t, err
	}
	tr.add("npu.run", job, t3)
	t4 := time.Now()
	if err := sys.Destroy(v); err != nil {
		return t, err
	}
	tr.add("core.destroy", job, t4)
	t5 := time.Now()
	tr.add("job", job, t0)
	return simTimes{boot: t1.Sub(t0), create: t2.Sub(t1), compile: t3.Sub(t2), run: t4.Sub(t3), total: t5.Sub(t0), cycles: rep.Cycles}, nil
}

// simStream runs passes over every case, in an order drawn from the
// seed, on one goroutine until the measured window is used up (see
// anotherPass). One pass's set-up is the sum of its cases' boot, create
// and compile time.
func simStream(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	out := newOutcome()
	rng := rand.New(rand.NewSource(cfg.seed))
	var (
		setups, sojourns, starts []float64
		caseMs                   = make([][]float64, len(simCases)) // each case's wall time per pass
		runIt                    = map[int]time.Duration{}
		create, compile          time.Duration
		cycles                   int64
		runTime                  time.Duration
		job                      uint64
		iters                    = map[int]int{}
	)
	runtime.GC()
	heap := startHeapSampler(0)
	begin := time.Now()
	for more := true; more; {
		var setup, pass time.Duration
		for _, i := range rng.Perm(len(simCases)) {
			c := simCases[i]
			job++
			out.attempted++
			// Each case starts from a collected heap, so the garbage of
			// the case before it, which the seed's order picks, does not
			// land on its time.
			runtime.GC()
			t, err := runSimCase(ctx, cfg.tr, job, c)
			if err != nil {
				out.failed++
				out.fails.add(err)
				continue
			}
			out.check(t.cycles == c.cycles, "%s at %d iterations: %d simulated cycles, want %d", c.model, c.iters, t.cycles, c.cycles)
			setup += t.boot + t.create + t.compile
			pass += t.total
			sojourns = append(sojourns, ms(t.total))
			caseMs[i] = append(caseMs[i], ms(t.total))
			starts = append(starts, ms(t.boot+t.create+t.compile))
			runIt[c.iters] += t.run
			iters[c.iters] += c.iters
			create += t.create
			compile += t.compile
			cycles += t.cycles
			runTime += t.run
		}
		heap.cut()
		setups = append(setups, setup.Seconds())
		more = anotherPass(begin, pass, cfg.seconds)
	}
	out.e2e["peak_heap_mb"] = heap.peakMB()
	done := out.attempted - out.failed
	out.setSetup(setups)
	// Each case's median over passes; the pass made of those medians sets
	// jobs_per_s and their geometric mean the typical case time, so
	// neither figure rests on one pass or on one case.
	var medPassMs, logSum float64
	cases := 0
	for _, xs := range caseMs {
		if len(xs) > 0 {
			m := median(xs)
			medPassMs += m
			logSum += math.Log(m)
			cases++
		}
	}
	out.e2e["jobs_per_s"] = ratio(float64(cases), medPassMs/1000)
	out.cost = ratio(1, out.e2e["jobs_per_s"])
	out.e2e["sojourn_p50_ms"] = math.Exp(ratio(logSum, float64(cases)))
	out.e2e["completed_frac"] = ratio(float64(done), float64(out.attempted))
	out.putLatencies(sojourns, starts)
	out.put("passes", float64(len(setups)), "count")
	out.put("sim_mcycles_per_s", float64(cycles)/1e6/runTime.Seconds(), "Mcycles/s")
	out.put("simulated_cycles", float64(cycles), "cycles")

	it1 := ratio(ms(runIt[1]), float64(iters[1]))
	it8 := ratio(ms(runIt[8]), float64(iters[8]))
	out.layer["npu.run_ms_per_iter.it1"] = it1
	out.layer["npu.run_ms_per_iter.it8"] = it8
	out.layer["npu.iter_scaling"] = ratio(it8, it1)
	out.layer["npu.mcycles_per_s"] = float64(cycles) / 1e6 / runTime.Seconds()
	out.layer["core.create_ms"] = ratio(ms(create), float64(done))
	out.layer["workload.compile_ms"] = ratio(ms(compile), float64(done))
	if done == 0 {
		return out, fmt.Errorf("sim-stream: every case failed")
	}
	return out, nil
}
