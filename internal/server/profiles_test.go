package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"gallery/internal/blobstore"
	"gallery/internal/client"
	"gallery/internal/core"
	"gallery/internal/obs"
	"gallery/internal/obs/profile"
	"gallery/internal/relstore"
)

// TestProfileIngestRejectsUnknownKind: a shipment holding a summary of a
// kind no profiler produces is refused whole with 400, so an outside
// publisher cannot grow a process's ring one new kind per request.
func TestProfileIngestRejectsUnknownKind(t *testing.T) {
	reg, err := core.New(relstore.NewMemory(), blobstore.NewMemory(blobstore.Options{}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWith(reg, nil, nil, Options{Obs: obs.NewRegistry(), Profiles: profile.NewFleet()})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL, ts.Client())

	end := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	cpu := profile.Summary{Kind: profile.KindCPU, Start: end.Add(-time.Second), End: end, Total: 10, Samples: 1,
		Top: []profile.FuncStat{{Name: "f", Self: 10, Cum: 10, SelfShare: 1, CumShare: 1}}}
	post := func(summaries ...profile.Summary) int {
		t.Helper()
		body, err := json.Marshal(profile.IngestRequest{Process: "galleryserve", Summaries: summaries})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/debug/profile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(cpu); code != http.StatusAccepted {
		t.Fatalf("cpu shipment: status %d, want 202", code)
	}
	before, err := c.DebugProfile(0, 0)
	if err != nil {
		t.Fatal(err)
	}

	bogus := cpu
	bogus.Kind = "kind-0001"
	if code := post(cpu, bogus); code != http.StatusBadRequest {
		t.Fatalf("shipment with kind %q: status %d, want 400", bogus.Kind, code)
	}
	after, err := c.DebugProfile(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Processes, before.Processes) {
		t.Fatalf("a refused shipment changed the view:\n before %+v\n after  %+v", before.Processes, after.Processes)
	}
}
