package httpmw

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"testing"
	"time"

	"gallery/internal/obs"
	"gallery/internal/obs/profile"
)

// TestPprofProfileDuringCaptureWindow: an operator's CPU profile pull made
// while the continuous profiler has a window open takes the profile from
// it. The pull answers 200 with a profile that parses, and the window ends
// early, its partial summary dropped and counted.
func TestPprofProfileDuringCaptureWindow(t *testing.T) {
	reg := obs.NewRegistry()
	p := profile.New(profile.Config{
		Process: "t", Window: time.Minute, Interval: time.Hour, Obs: reg,
	})
	cycle := func() chan []profile.Summary {
		ch := make(chan []profile.Summary, 1)
		go func() { ch <- p.CaptureCycle() }()
		return ch
	}
	done := cycle()
	// The window is open once the runtime refuses a second CPU profile. A
	// probe that wins the profile first makes that cycle skip its window:
	// run another.
	for open := false; !open; {
		select {
		case <-done:
			done = cycle()
		case <-time.After(5 * time.Millisecond):
			if open = pprof.StartCPUProfile(io.Discard) != nil; !open {
				pprof.StopCPUProfile()
			}
		}
	}
	skipped := reg.Counter("profile_capture_errors_total").Value()

	mux := http.NewServeMux()
	RegisterPprof(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/pprof/profile?seconds=1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pull during a window: %d %s", rec.Code, rec.Body)
	}
	if _, err := profile.Summarize(rec.Body.Bytes(), profile.KindCPU, 10); err != nil {
		t.Fatalf("pulled profile does not parse: %v", err)
	}

	select {
	case out := <-done:
		for _, s := range out {
			if s.Kind == profile.KindCPU {
				t.Errorf("the preempted window still produced a cpu summary over %v", s.End.Sub(s.Start))
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the window did not end when the pull took the profile")
	}
	if got := reg.Counter("profile_capture_errors_total").Value(); got != skipped+1 {
		t.Errorf("profile_capture_errors_total = %d, want %d", got, skipped+1)
	}
}
