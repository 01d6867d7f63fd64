package vnpu

import (
	"strings"
	"testing"
)

func TestSystemLifecycle(t *testing.T) {
	sys, err := NewSystem(FPGAConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sys.FreeCores() != 8 || sys.Utilization() != 0 {
		t.Fatalf("fresh system: free=%d util=%v", sys.FreeCores(), sys.Utilization())
	}
	v, err := sys.Create(Request{Topology: Mesh(2, 2), MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if sys.FreeCores() != 4 || len(sys.VirtualNPUs()) != 1 {
		t.Fatalf("after create: free=%d vnpus=%d", sys.FreeCores(), len(sys.VirtualNPUs()))
	}
	if err := sys.Destroy(v); err != nil {
		t.Fatal(err)
	}
	if sys.FreeCores() != 8 {
		t.Fatalf("after destroy: free=%d", sys.FreeCores())
	}
}

func TestRunModelQuickstart(t *testing.T) {
	sys, err := NewSystem(FPGAConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := ModelByName("yololite")
	if err != nil {
		t.Fatal(err)
	}
	memBytes, err := sys.ModelMemoryBytes(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.Create(Request{Topology: Mesh(2, 2), MemoryBytes: memBytes})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.RunModel(v, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FPS <= 0 || rep.Cycles <= 0 || rep.Iterations != 4 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.WarmupCycles <= 0 && !rep.Streaming {
		t.Fatal("resident weights imply a warm-up cost")
	}
}

func TestRunModelRequiresMemory(t *testing.T) {
	sys, _ := NewSystem(FPGAConfig())
	m, _ := ModelByName("yololite")
	v, err := sys.Create(Request{Topology: Mesh(2, 2)}) // no memory
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunModel(v, m, 1); err == nil || !strings.Contains(err.Error(), "ModelMemoryBytes") {
		t.Fatalf("err = %v, want sizing hint", err)
	}
}

func TestTopologyHelpers(t *testing.T) {
	if Mesh(2, 3).NumNodes() != 6 || Chain(4).NumEdges() != 3 || NearMesh(13).NumNodes() != 13 {
		t.Fatal("topology helpers broken")
	}
}

func TestModelZooAccess(t *testing.T) {
	names := ModelNames()
	if len(names) < 10 {
		t.Fatalf("zoo = %v", names)
	}
	for _, n := range names {
		if _, err := ModelByName(n); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	if _, err := ModelByName("missing"); err == nil {
		t.Fatal("unknown model must fail")
	}
}

func TestTwoTenantsIsolated(t *testing.T) {
	sys, _ := NewSystem(FPGAConfig())
	m, _ := ModelByName("yololite")
	mem4, _ := sys.ModelMemoryBytes(m, 4)
	a, err := sys.Create(Request{Topology: Mesh(2, 2), MemoryBytes: mem4, Confined: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Create(Request{Topology: Mesh(2, 2), MemoryBytes: mem4, Confined: true})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := sys.RunModel(a, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sys.RunModel(b, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ra.FPS <= 0 || rb.FPS <= 0 {
		t.Fatalf("reports: %+v %+v", ra, rb)
	}
	if sys.Utilization() != 1 {
		t.Fatalf("utilization = %v", sys.Utilization())
	}
}

// runStreaming runs a model on a 3x4 vNPU of a freshly booted sim chip,
// the weight-streaming regime where HBM calendars fill with millions of
// bursts and one core's DMA runs far ahead of the others'.
func runStreaming(tb testing.TB, model string, iters int) Report {
	tb.Helper()
	sys, err := NewSystem(SimConfig())
	if err != nil {
		tb.Fatal(err)
	}
	m := mustModel(tb, model)
	mem, err := sys.ModelMemoryBytes(m, 12)
	if err != nil {
		tb.Fatal(err)
	}
	v, err := sys.Create(NewRequest(Mesh(3, 4), WithMemory(mem)))
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := sys.RunModel(v, m, iters)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// TestStreamingBackfillCycles pins a streaming run long enough that most
// HBM bursts backfill gaps behind the calendar's tail instead of
// appending to it: any change to where a burst lands moves the makespan.
func TestStreamingBackfillCycles(t *testing.T) {
	rep := runStreaming(t, "resnet34", 8)
	if !rep.Streaming {
		t.Fatal("resnet34 on a 3x4 sim vNPU must stream its weights")
	}
	const want = 39054539
	if rep.Cycles != want {
		t.Fatalf("resnet34 x8: %d cycles, want %d", rep.Cycles, want)
	}
}
