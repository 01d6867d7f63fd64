package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/vnpu-sim/vnpu/internal/obs"
)

// maxSpans bounds the spans one traced run keeps in memory; later spans
// are counted as dropped and reported in obs.trace_dropped.
const maxSpans = 1 << 19

// span is one benchmark call into a layer. Spans of one job share its id.
type span struct {
	name       string
	job        uint64
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps the benchmark's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	// every samples jobs: only the spans of job ids divisible by it are
	// kept. 1 keeps every job's.
	every   uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), every: 1} }

// add records a span named after the layer call, from start to now.
func (t *tracer) add(name string, job uint64, start time.Time) {
	if t == nil || job%t.every != 0 {
		return
	}
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{name: name, job: job, start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
}

// lifecycleTrack is one recorder's lifecycle events (a cluster's or the
// replay's), exported as its own process in the trace. Events are placed
// on the timeline relative to origin.
type lifecycleTrack struct {
	name    string
	origin  time.Time
	events  []obs.Event
	dropped uint64
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the benchmark's spans (process 0, one thread per
// job) and each lifecycle track (processes 1..n, one thread per job) as
// one Chrome trace_event file.
func (t *tracer) writeChrome(path, workload string, tracks []lifecycleTrack) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	first := true
	emit := func(e chromeEvent) error {
		if !first {
			if _, err := w.WriteString(","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(e)
	}
	dropped := map[string]uint64{"benchmark": uint64(t.dropped)}
	err = func() error {
		if _, err := w.WriteString(`{"traceEvents":[`); err != nil {
			return err
		}
		if err := emit(chromeEvent{Name: "process_name", Ph: "M", Args: map[string]any{"name": "perfbench " + workload}}); err != nil {
			return err
		}
		// A layer call is caused by its job, whose span (where the
		// workload records one) encloses it.
		hasJob := map[uint64]bool{}
		for _, s := range t.spans {
			if s.name == "job" {
				hasJob[s.job] = true
			}
		}
		for _, s := range t.spans {
			args := map[string]any{"job": s.job}
			if s.name != "job" && hasJob[s.job] {
				args["parent"] = "job"
			}
			if err := emit(chromeEvent{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Tid: s.job, Args: args}); err != nil {
				return err
			}
		}
		for i, tr := range tracks {
			pid := i + 1
			dropped[tr.name] = tr.dropped
			if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": tr.name}}); err != nil {
				return err
			}
			if err := emitLifecycle(tr, pid, emit); err != nil {
				return err
			}
		}
		meta, err := json.Marshal(map[string]any{"droppedEvents": dropped})
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, `],"displayTimeUnit":"ms","metadata":%s}`+"\n", meta)
		return err
	}()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// emitLifecycle turns each job's consecutive lifecycle events into
// complete spans named by the starting stage; a job's last event is an
// instant.
func emitLifecycle(tr lifecycleTrack, pid int, emit func(chromeEvent) error) error {
	evs := append([]obs.Event(nil), tr.events...)
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].Job != evs[b].Job {
			return evs[a].Job < evs[b].Job
		}
		return evs[a].Seq < evs[b].Seq
	})
	for i, e := range evs {
		name := e.Stage.String()
		if e.Detail != "" {
			name += ":" + e.Detail
		}
		ce := chromeEvent{Name: name, Ph: "i", S: "t", Ts: us(e.At.Sub(tr.origin)), Pid: pid, Tid: e.Job,
			Args: map[string]any{"tenant": e.Tenant, "shard": e.Shard, "chip": e.Chip}}
		if i+1 < len(evs) && evs[i+1].Job == e.Job {
			ce.Ph, ce.S, ce.Dur = "X", "", us(evs[i+1].At.Sub(e.At))
		}
		if err := emit(ce); err != nil {
			return err
		}
	}
	return nil
}
