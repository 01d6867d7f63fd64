package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/vnpu-sim/vnpu/internal/fleet"
	"github.com/vnpu-sim/vnpu/internal/obs"
	"github.com/vnpu-sim/vnpu/internal/obs/slo"
)

// orderHashFile pins the order hash of the reference replay (seed 1).
const orderHashFile = "ci/fleet_order_hash.txt"

// replayConfig is the trace `vnpuserve -shards 4 -virtual` replays: four
// shards of four 36-core sim chips, a million jobs at 1.5x the naive
// core capacity, and a drain/rejoin of shard 1.
func replayConfig(seed int64) fleet.TraceConfig {
	const shards, chips, cores = 4, 4, 36
	return fleet.TraceConfig{
		Shards:        shards,
		ChipsPerShard: chips,
		CoresPerChip:  cores,
		Jobs:          1_000_000,
		RatePerSec:    1.5 * float64(shards*chips*cores) / (3 * 300e-6),
		Tenants:       8,
		Models:        6,
		ReuseFraction: 0.6,
		Seed:          seed,
		DrainShard:    1,
		DrainAtFrac:   0.4,
		RejoinAtFrac:  0.7,
	}
}

// withPlanes attaches the SLO tracker and critical-path analyzer
// vnpuserve taps a replay with (2ms p99 target).
func withPlanes(tc fleet.TraceConfig) (fleet.TraceConfig, *slo.Analyzer) {
	epoch := time.Unix(0, 0)
	critic := slo.NewAnalyzer()
	tracker := slo.NewTracker(func() time.Time { return epoch },
		[]string{"best-effort", "normal", "high", "critical"},
		slo.Objective{Class: -1, Target: 2 * time.Millisecond, Percentile: 0.99,
			Availability: 0.999, Window: 250 * time.Millisecond})
	tc.Sinks = []fleet.EventSink{critic, tracker}
	tc.Observe = &fleet.ReplayGauges{}
	return tc, critic
}

// replay times fleet.Replay of the seed's million-job trace, pass after
// pass until the measured window is used up (see anotherPass). Set-up is a short
// replay of the same trace shape, run before and after the window.
// Before timing, the reference seed is replayed once and its order hash
// checked against orderHashFile.
func replay(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	want, err := os.ReadFile(orderHashFile)
	if err != nil {
		return nil, fmt.Errorf("replay: reference order hash: %w", err)
	}
	ref, err := fleet.Replay(replayConfig(1))
	if err != nil {
		return nil, fmt.Errorf("replay: reference trace: %w", err)
	}
	got := fmt.Sprintf("%016x", ref.OrderHash)
	out.check(got == strings.TrimSpace(string(want)), "replay: reference order hash %s, %s pins %s", got, orderHashFile, strings.TrimSpace(string(want)))
	out.check(ref.Completed+ref.Rejected == ref.Jobs, "replay: reference trace lost %d jobs", ref.Jobs-ref.Completed-ref.Rejected)

	var setups []float64
	setup := func(n int) error {
		for i := 0; i < n; i++ {
			tc, _ := withPlanes(replayConfig(cfg.seed))
			tc.Jobs /= 50
			t0 := time.Now()
			if _, err := fleet.Replay(tc); err != nil {
				return fmt.Errorf("replay: set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		return nil
	}
	if err := setup(setupBefore); err != nil {
		return nil, err
	}

	var (
		rates, walls, p50s, p99s, served []float64
		first                            *fleet.Result
		critic                           *slo.Analyzer
		rec                              *obs.Recorder
		job                              uint64
	)
	runtime.GC()
	heap := startHeapSampler(0)
	begin := time.Now()
	for more := true; more; {
		tc, an := withPlanes(replayConfig(cfg.seed))
		if cfg.tr != nil {
			rec = obs.NewRecorder(tc.Shards, 0)
			tc.Recorder = rec
		}
		critic = an
		job++
		out.attempted++
		t0 := time.Now()
		res, err := fleet.Replay(tc)
		wall := time.Since(t0)
		cfg.tr.add("fleet.replay", job, t0)
		if err != nil {
			out.failed++
			out.fails.add(err)
			more = anotherPass(begin, wall, cfg.seconds)
			continue
		}
		lost := res.Jobs - res.Completed - res.Rejected
		out.check(lost == 0, "replay: seed %d lost %d jobs", cfg.seed, lost)
		if first == nil {
			first = &res
		} else {
			out.check(res.OrderHash == first.OrderHash, "replay: seed %d replayed with order hash %016x after %016x", cfg.seed, res.OrderHash, first.OrderHash)
		}
		heap.cut()
		more = anotherPass(begin, wall, cfg.seconds)
		rates = append(rates, float64(res.Jobs)/wall.Seconds())
		walls = append(walls, wall.Seconds())
		p50s = append(p50s, ms(res.P50))
		p99s = append(p99s, ms(res.P99))
		served = append(served, float64(res.Completed)/float64(res.Jobs))
	}
	out.e2e["peak_heap_mb"] = heap.peakMB()
	if first == nil {
		return out, fmt.Errorf("replay: every pass failed")
	}
	if err := setup(setupAfter); err != nil {
		return nil, err
	}
	out.setSetup(setups)
	out.e2e["jobs_per_s"] = median(rates)
	out.cost = 1 / out.e2e["jobs_per_s"]
	// A replay pass is the job a user of the virtual replay waits for.
	out.e2e["sojourn_p50_ms"] = median(walls) * 1000
	out.e2e["completed_frac"] = median(served)
	out.put("virtual_sojourn_p50_ms", median(p50s), "ms")
	out.put("virtual_sojourn_p99_ms", median(p99s), "ms")
	out.put("failed_frac", ratio(float64(out.failed), float64(out.attempted)), "frac")
	out.put("passes", float64(len(rates)), "count")
	out.putDist("replay_wall", walls, "s")
	out.report["order_hash"] = fmt.Sprintf("%016x", first.OrderHash)
	out.put("rejected_typed", float64(first.Rejected), "jobs")
	out.put("warm_rate", first.WarmRate, "frac")

	out.layer["fleet.replay_s"] = median(walls)
	out.layer["fleet.steals"] = float64(first.Steals)
	attrShares(out, critic.Report())
	if rec != nil {
		out.layer["obs.trace_dropped"] = float64(rec.Dropped())
		out.lifecycle = append(out.lifecycle, lifecycleTrack{
			name: "fleet replay (virtual time)", origin: time.Unix(0, 0), events: rec.Snapshot(), dropped: rec.Dropped(),
		})
	}
	return out, nil
}
