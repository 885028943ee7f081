package profile_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gallery/internal/client"
	"gallery/internal/obs"
	"gallery/internal/obs/profile"
)

// shipProfiles wires a profiler-side Exporter the way galleryserve does:
// summaries queue on the telemetry shipper and leave through the client.
func shipProfiles(ship *obs.Shipper, cl *client.Client) func(string, []profile.Summary) {
	return func(process string, summaries []profile.Summary) {
		ship.Export(obs.ChannelProfiles, func(ctx context.Context) error {
			return cl.ExportProfiles(ctx, process, summaries)
		})
	}
}

func cpuSummary(total int64) profile.Summary {
	return profile.Summary{Kind: profile.KindCPU, End: time.Now(), Total: total,
		Top: []profile.FuncStat{{Name: "f", Self: total, Cum: total}}}
}

func TestHTTPExporter(t *testing.T) {
	var mu sync.Mutex
	var got []profile.IngestRequest
	var auth, paths []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ir profile.IngestRequest
		if err := json.NewDecoder(r.Body).Decode(&ir); err != nil {
			t.Errorf("decode: %v", err)
		}
		mu.Lock()
		got = append(got, ir)
		auth = append(auth, r.Header.Get("Authorization"))
		paths = append(paths, r.Method+" "+r.URL.Path)
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	ship := obs.NewShipper(reg)
	defer ship.Close()
	export := shipProfiles(ship, client.NewWith(srv.URL, client.Options{Token: "sekrit"}))
	export("galleryserve", []profile.Summary{cpuSummary(42)})
	ship.Flush()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Process != "galleryserve" || len(got[0].Summaries) != 1 {
		t.Fatalf("received %+v", got)
	}
	if got[0].Summaries[0].Total != 42 {
		t.Fatalf("summary = %+v", got[0].Summaries[0])
	}
	if auth[0] != "Bearer sekrit" {
		t.Fatalf("auth header = %q", auth[0])
	}
	if paths[0] != "POST /v1/debug/profile" {
		t.Fatalf("request = %q", paths[0])
	}
	if lost := reg.SumCounters("telemetry_"); lost != 0 {
		t.Fatalf("dropped+failed = %d", lost)
	}
}

func TestHTTPExporterFailureCounted(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "nope", http.StatusForbidden)
	}))
	defer srv.Close()
	reg := obs.NewRegistry()
	ship := obs.NewShipper(reg)
	defer ship.Close()
	// A retry budget on the client must not turn into retries here: one
	// shipment, one attempt.
	export := shipProfiles(ship, client.NewWith(srv.URL, client.Options{Retries: 3}))
	export("p", []profile.Summary{cpuSummary(1)})
	ship.Flush()
	failed := reg.CounterVec("telemetry_failed_total", []string{"channel"}, 0)
	if got := failed.Peek(obs.ChannelProfiles).Value(); got != 1 {
		t.Fatalf("failed{profiles} = %d, want 1", got)
	}
	if got := failed.Peek(obs.ChannelTraces).Value() + failed.Peek(obs.ChannelAudit).Value(); got != 0 {
		t.Fatalf("failure counted on another channel: %d", got)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("peer saw %d attempts, want 1", n)
	}
}
