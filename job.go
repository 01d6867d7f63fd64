package vnpu

import (
	"context"
	"fmt"
	"time"

	"github.com/vnpu-sim/vnpu/internal/sched"
	"github.com/vnpu-sim/vnpu/internal/session"
)

// Priority is a job's scheduling class. The cluster's scheduler core
// orders admission by class first (higher classes place first),
// earliest deadline next, admission order last. Aging
// protects lower classes from starvation: a queued job is promoted one
// class after every WithAgingRounds scheduling rounds spent waiting, so
// even sustained PriorityCritical load cannot park a PriorityBestEffort
// job forever.
type Priority int

const (
	// PriorityDefault resolves to the cluster's default class (see
	// WithDefaultPriority; PriorityNormal unless overridden), so zero-value
	// Jobs keep their pre-priority behavior.
	PriorityDefault Priority = 0
	// PriorityBestEffort is the lowest class: batch and backfill traffic.
	PriorityBestEffort Priority = 1
	// PriorityNormal is the standard serving class.
	PriorityNormal Priority = 2
	// PriorityHigh is for latency-sensitive traffic.
	PriorityHigh Priority = 3
	// PriorityCritical is the top class: SLO-critical jobs that may
	// displace queued lower-class work.
	PriorityCritical Priority = 4
)

// NumPriorityClasses is the number of distinct scheduling classes
// (PriorityBestEffort through PriorityCritical).
const NumPriorityClasses = 4

// String names the class for reports.
func (p Priority) String() string {
	switch p {
	case PriorityDefault:
		return "default"
	case PriorityBestEffort:
		return "best-effort"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	case PriorityCritical:
		return "critical"
	}
	return fmt.Sprintf("priority(%d)", int(p))
}

// class maps a resolved Priority onto the scheduler core's 0-based
// class index.
func (p Priority) class() int { return int(p) - 1 }

// priorityFromClass is the inverse of Priority.class.
func priorityFromClass(class int) Priority { return Priority(class + 1) }

// Job is one unit of serving work: run a model for a number of iterations
// on a virtual NPU of the requested topology. Submit it to a Cluster.
type Job struct {
	// Tenant identifies the submitter for quota accounting and reporting.
	// Empty means the shared "default" tenant.
	Tenant string
	// Model is the workload to run.
	Model Model
	// Iterations repeats the inference (0 means 1).
	Iterations int
	// Priority is the job's scheduling class (PriorityDefault resolves
	// to the cluster's default, normally PriorityNormal; tenants may be
	// capped with WithTenantPriorityCap). Higher classes are placed
	// first and may displace queued lower-class work.
	Priority Priority
	// Deadline, when non-zero, is the job's scheduling SLO: within a
	// class, jobs place earliest-deadline-first, and a job still
	// unplaced when its deadline passes fails fast with
	// ErrDeadlineExceeded instead of occupying a chip late. The deadline
	// bounds time-to-placement, not completion — a job already running
	// is never killed by it (cancel the submission context for that).
	Deadline time.Time
	// Topology is the virtual NPU shape the job wants. It must not be
	// mutated after Submit — placement decisions (and their cache keys)
	// are computed from it while the job is in flight.
	Topology *Topology
	// Options tune the underlying Request (strategy, memory, confinement,
	// bandwidth caps, ...). Memory defaults to the model's footprint on
	// the requested core count.
	Options []Option
	// Reusable marks the job session-keyed: on a cluster with
	// WithSessionReuse, it runs on a resident vNPU kept per (tenant,
	// model, topology, options) — warm jobs skip placement, creation and
	// compilation, and bursts of identical jobs are continuously batched
	// back-to-back on one resident vNPU. Non-reusable jobs get a vNPU
	// created and destroyed for them, though repeated identical
	// submissions are auto-promoted to sessions once the cluster has
	// seen their fingerprint before. Decode-phase transformer traffic is
	// the intended user; jobs with callback-based mapping options are
	// never pooled.
	Reusable bool

	// modelSig is the model's content fingerprint, resolved once at
	// Submit and threaded through so the execution paths can key the
	// compiled-program cache without rehashing the model per job.
	modelSig uint64

	// sess is the job's session key, set at Submit when the job runs on
	// a resident session (nil otherwise); placement offers and claims
	// sessions by it.
	sess *session.Key

	// obsID is the job's lifecycle-trace identity, assigned at Submit
	// when tracing is on (0 otherwise) and preserved across fleet
	// forwarding so one job stays one trace track.
	obsID uint64
}

// request materializes the job's Request by layering its options.
func (j Job) request() Request {
	return NewRequest(j.Topology, j.Options...)
}

// tenant returns the quota-accounting key.
func (j Job) tenant() string {
	if j.Tenant == "" {
		return "default"
	}
	return j.Tenant
}

// JobReport extends the single-run Report with serving-side facts.
type JobReport struct {
	Report
	// Chip is the index of the chip that executed the job.
	Chip int
	// Tenant echoes the submitting tenant.
	Tenant string
	// Model echoes the workload's name.
	Model string
	// MapCost is the topology edit distance of the placement (0 = the
	// exact requested topology).
	MapCost float64
	// Priority is the job's resolved scheduling class (never
	// PriorityDefault: the cluster default and tenant caps are applied).
	Priority Priority
	// QueueWait is the wall-clock time the job spent queued before being
	// placed on its chip.
	QueueWait time.Duration
	// Warm reports that the job ran on an already-resident session vNPU
	// (warm lease or attach to a busy session) — no placement, create or
	// compile happened on its account.
	Warm bool
}

// Handle tracks one submitted job. Obtain one from Cluster.Submit, then
// Wait on it (or select on Done) for the JobReport.
type Handle struct {
	h *sched.Handle[JobReport]
}

// Wait blocks until the job finishes or ctx is done. A ctx expiry only
// abandons the wait — the job keeps running; cancel the context passed to
// Submit to cancel the job itself.
func (h *Handle) Wait(ctx context.Context) (JobReport, error) {
	rep, err := h.h.Wait(ctx)
	if err != nil {
		return rep, err
	}
	rep.QueueWait = h.h.QueueWait()
	return rep, nil
}

// Done is closed when the job has finished (successfully or not).
func (h *Handle) Done() <-chan struct{} { return h.h.Done() }

// Started is closed when the job has been placed on a chip.
func (h *Handle) Started() <-chan struct{} { return h.h.Started() }

// Chip reports the chip the job was placed on (-1 before placement).
func (h *Handle) Chip() int { return h.h.Chip() }

// Tenant reports the submitting tenant.
func (h *Handle) Tenant() string { return h.h.Tenant() }

// QueueWait reports how long the job waited in the admission queue before
// reaching a chip (time so far, while still queued).
func (h *Handle) QueueWait() time.Duration { return h.h.QueueWait() }
