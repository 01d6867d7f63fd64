// Package vnpu is the public API of the vNPU reproduction: topology-aware
// virtualization for inter-core connected neural processing units, after
// Feng et al., "Topology-Aware Virtualization over Inter-Core Connected
// Neural Processing Units" (ISCA '25).
//
// The package wraps a cycle-approximate simulator of an inter-core
// connected NPU (2D-mesh NoC, scratchpad-centric cores, HBM-backed global
// memory) and the paper's virtualization layer:
//
//   - vRouter: routing tables that redirect instructions and NoC packets
//     from virtual to physical cores, optionally confining traffic to the
//     virtual NPU's own cores;
//   - vChunk: range-based memory virtualization (range translation table +
//     range TLB) tailored to the NPU's coarse-grained DMA patterns;
//   - best-effort topology mapping: core allocation by minimum topology
//     edit distance over candidate regions.
//
// # Serving with a Cluster
//
// The serving entry point is Cluster: several chips behind one concurrent
// front-end with asynchronous job submission and admission control (a
// bounded FIFO queue plus per-tenant in-flight quotas). A placement
// engine (internal/place) owns the "which cores on which chip" decision:
// scored topology mappings are cached per (chip class, free-set
// signature, requested topology, strategy) with free-set signatures
// maintained incrementally on create/destroy deltas, so steady-state
// dispatch rarely runs the topology mapper — PlacementStats reports the
// hit rate. Jobs go to the chip whose free cores realize the requested
// topology with the smallest edit distance, ties broken toward the
// cheapest chip class (see WithChipProfiles for heterogeneous clusters)
// and then the least-loaded chip; one worker per chip executes placed
// jobs in order, and when nothing can host a job, dispatch waits for
// capacity to free up:
//
//	cluster, _ := vnpu.NewCluster(vnpu.SimConfig(), 4,
//		vnpu.WithQueueDepth(256), vnpu.WithTenantQuota(8))
//	defer cluster.Close()
//
//	model, _ := vnpu.ModelByName("resnet18")
//	h, err := cluster.Submit(ctx, vnpu.Job{
//		Tenant:     "vision",
//		Model:      model,
//		Iterations: 8,
//		Topology:   vnpu.Mesh(3, 4),
//		Options:    []vnpu.Option{vnpu.WithConfinement(true)},
//	})
//	if err != nil {
//		// errors.Is(err, vnpu.ErrQueueFull): shed load, retry later.
//		return err
//	}
//	rep, _ := h.Wait(ctx)
//	fmt.Printf("%.1f FPS on chip %d after %v queued\n", rep.FPS, rep.Chip, rep.QueueWait)
//
// # Session reuse and continuous batching
//
// With WithSessionReuse, session-keyed jobs (Job.Reusable, or
// auto-promoted repeat fingerprints) run on resident vNPUs from a pool
// (internal/session) keyed by (tenant, model, topology, options). They
// take the same dispatcher path as every job, where a resident session
// is one more placement outcome: warm jobs skip placement, creation and
// compilation entirely, bursts of identical jobs attach to a busy
// session and run back-to-back on its resident vNPU, and idle sessions
// are reclaimed — by TTL, by an LRU bound, or on demand whenever any job
// cannot otherwise be placed. SessionStats reports the warm-hit rate; JobReport.Warm
// marks jobs served by a resident session. Reused vNPUs are
// cycle-identical to freshly created ones (per-job transient resets).
//
// Failures across the stack wrap the typed sentinels ErrNoCapacity,
// ErrTopologyUnsatisfiable, ErrMemoryExceeded, ErrDestroyed, ErrQueueFull,
// ErrQuotaExceeded and ErrLeased, so callers branch with errors.Is.
//
// # Single-chip building block
//
// System drives one chip synchronously (a Cluster of size 1 wraps the
// same machinery) and remains the interface of the paper's experiments:
//
//	sys, _ := vnpu.NewSystem(vnpu.SimConfig())
//	model, _ := vnpu.ModelByName("resnet18")
//	bytes, _ := sys.ModelMemoryBytes(model, 12)
//	v, _ := sys.Create(vnpu.NewRequest(vnpu.Mesh(3, 4), vnpu.WithMemory(bytes)))
//	rep, _ := sys.RunModel(v, model, 8)
//	fmt.Printf("%.1f FPS over %d cores\n", rep.FPS, v.NumCores())
//
// The full evaluation of the paper (every table and figure) is
// regenerated by cmd/vnpu-experiments and the benchmarks in bench_test.go;
// cmd/vnpuserve load-tests the serving path.
package vnpu

import (
	"github.com/vnpu-sim/vnpu/internal/core"
	"github.com/vnpu-sim/vnpu/internal/npu"
	"github.com/vnpu-sim/vnpu/internal/topo"
	"github.com/vnpu-sim/vnpu/internal/workload"
)

// Config describes an NPU chip (Table 2 of the paper).
type Config = npu.Config

// FPGAConfig is the small Chipyard/FireSim-scale chip: 8 cores, 16x16
// systolic arrays, 512 KiB scratchpads.
func FPGAConfig() Config { return npu.FPGAConfig() }

// SimConfig is the large DCRA-scale chip: 36 cores, 128x128 systolic
// arrays, 30 MiB scratchpads.
func SimConfig() Config { return npu.SimConfig() }

// SimConfig48 is the 48-core variant of SimConfig.
func SimConfig48() Config { return npu.SimConfig48() }

// Topology is an undirected hardware/virtual topology graph.
type Topology = topo.Graph

// Mesh builds a rows x cols 2D-mesh topology (the standard request shape).
func Mesh(rows, cols int) *Topology { return topo.Mesh2D(rows, cols) }

// Chain builds a 1 x n pipeline topology.
func Chain(n int) *Topology { return topo.Chain(n) }

// NearMesh builds the most compact connected topology with exactly n nodes
// for core counts that are not perfect rectangles.
func NearMesh(n int) *Topology { return topo.NearMesh(n) }

// Request describes the virtual NPU a tenant asks for: topology, core
// allocation strategy, memory size and translation mode, NoC confinement
// and optional bandwidth caps.
type Request = core.Request

// VirtualNPU is an allocated virtual NPU.
type VirtualNPU = core.VNPU

// Strategy selects the core-allocation policy.
type Strategy = core.Strategy

// Allocation strategies (§4.3 of the paper).
const (
	// StrategySimilar is the paper's best-effort minimum-topology-edit-
	// distance mapping (the default).
	StrategySimilar = core.StrategySimilar
	// StrategyExact requires an isomorphic region and fails otherwise.
	StrategyExact = core.StrategyExact
	// StrategyStraightforward allocates the smallest free core IDs.
	StrategyStraightforward = core.StrategyStraightforward
	// StrategyFragment accepts disconnected regions as a last resort.
	StrategyFragment = core.StrategyFragment
)

// TranslationMode selects memory virtualization for a virtual NPU.
type TranslationMode = core.TranslationMode

// Translation modes (§4.2 of the paper).
const (
	// TranslationRange is vChunk range translation (the default).
	TranslationRange = core.TranslationRange
	// TranslationPage is the page-based IOTLB baseline.
	TranslationPage = core.TranslationPage
	// TranslationNone passes physical addresses through.
	TranslationNone = core.TranslationNone
)

// Model is an ML workload as a layer graph.
type Model = workload.Model

// ModelByName returns a zoo model: "alexnet", "resnet18", "resnet34",
// "resnet50", "googlenet", "mobilenet", "yololite", "transformer",
// "gpt2-small", "gpt2-medium", "gpt2-large".
func ModelByName(name string) (Model, error) { return workload.ByName(name) }

// ModelNames lists the zoo models.
func ModelNames() []string { return workload.Names() }

// DecodeModel builds the decode phase of a GPT-style model: one token
// generated against a KV cache of kvLen tokens (§7 of the paper; decode is
// memory-bound per §2.2). Reserve Request.KVBufferBytes with
// KVBufferBytesPerCore when running it.
func DecodeModel(blocks int, dim, kvLen int32) Model {
	return workload.GPT2Decode(blocks, dim, kvLen)
}

// KVBufferBytesPerCore sizes the per-core scratchpad KV reservation for a
// decode model pipelined over the given core count.
func KVBufferBytesPerCore(blocks int, dim, kvLen int32, cores int) int64 {
	return workload.KVBufferBytesPerCore(blocks, dim, kvLen, cores)
}
