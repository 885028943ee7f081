package profile

import (
	"fmt"
	"testing"
	"time"
)

func TestFleetIngestAndSnapshot(t *testing.T) {
	f := NewFleet(8)
	t0 := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	f.Ingest("galleryd", []Summary{mkSummary(KindCPU, t0.Add(time.Minute), 100,
		FuncStat{Name: "d_hot", Self: 100, Cum: 100})})
	f.Ingest("galleryserve", []Summary{mkSummary(KindCPU, t0.Add(2*time.Minute), 200,
		FuncStat{Name: "gw_hot", Self: 200, Cum: 200})})
	f.Ingest("", []Summary{mkSummary(KindCPU, t0, 1)}) // ignored

	v := f.Snapshot(0, 10, t0.Add(3*time.Minute))
	if len(v.Processes) != 2 {
		t.Fatalf("processes = %+v", v.Processes)
	}
	// Sorted by process name.
	if v.Processes[0].Process != "galleryd" || v.Processes[1].Process != "galleryserve" {
		t.Fatalf("order = %v, %v", v.Processes[0].Process, v.Processes[1].Process)
	}
	if v.Processes[1].Merged[KindCPU].Top[0].Name != "gw_hot" {
		t.Fatalf("gateway merged = %+v", v.Processes[1].Merged)
	}
	if r := f.Ring("galleryd"); r == nil || len(r.Recent(KindCPU, 0)) != 1 {
		t.Fatal("galleryd ring missing")
	}
	if f.Ring("nope") != nil {
		t.Fatal("unknown process returned a ring")
	}
}

func TestFleetProcessBound(t *testing.T) {
	f := NewFleet(2)
	s := []Summary{mkSummary(KindCPU, time.Now(), 1)}
	for i := 0; i < maxFleetProcesses+5; i++ {
		f.Ingest(fmt.Sprintf("proc-%03d", i), s)
	}
	if got := f.Dropped(); got != 5 {
		t.Fatalf("dropped = %d, want 5", got)
	}
	if len(f.Snapshot(0, 5, time.Now()).Processes) != maxFleetProcesses {
		t.Fatal("process bound not enforced")
	}
}

func TestProfilerCycle(t *testing.T) {
	fleet := NewFleet(8)
	p := New(Config{
		Process:  "testproc",
		Window:   50 * time.Millisecond,
		Interval: time.Hour, // loop never ticks; we drive cycles by hand
		TopN:     10,
		Keep:     4,
		Exporter: fleet.Ingest,
	})
	spinDone := make(chan struct{})
	go func() {
		spinForProfile(time.Now().Add(80 * time.Millisecond))
		close(spinDone)
	}()
	out := p.CaptureCycle()
	<-spinDone
	if len(out) < 1 {
		t.Fatal("cycle produced nothing")
	}
	kinds := make(map[string]bool)
	for _, s := range out {
		kinds[s.Kind] = true
	}
	for _, want := range []string{KindCPU, KindHeap, KindGoroutine, KindMutex, KindBlock} {
		if !kinds[want] {
			t.Fatalf("cycle missing %s summary (got %v)", want, kinds)
		}
	}
	if got := p.Ring().Recent(KindCPU, 0); len(got) != 1 {
		t.Fatalf("ring cpu summaries = %d", len(got))
	}
	if fleet.Ring("testproc") == nil {
		t.Fatal("cycle did not export to fleet")
	}
	// CPU window timestamps cover the window.
	cpu := p.Ring().Recent(KindCPU, 1)[0]
	if cpu.End.Sub(cpu.Start) < 40*time.Millisecond {
		t.Fatalf("cpu window [%v, %v] shorter than configured", cpu.Start, cpu.End)
	}
}

func TestProfilerStartStop(t *testing.T) {
	p := New(Config{Process: "t", Window: 20 * time.Millisecond, Interval: 25 * time.Millisecond,
		Kinds: []string{KindGoroutine}})
	p.Start()
	deadline := time.Now().Add(2 * time.Second)
	for len(p.Ring().Recent(KindCPU, 0)) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	p.Stop() // interrupts any in-flight window and joins the loop
	if len(p.Ring().Recent(KindCPU, 0)) == 0 {
		t.Fatal("started profiler captured nothing")
	}
	// Stop on a never-started profiler must not hang.
	New(Config{Process: "idle"}).Stop()
}
