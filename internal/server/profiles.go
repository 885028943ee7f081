package server

import (
	"fmt"
	"net/http"
	"time"

	"gallery/internal/core"
	"gallery/internal/obs/httpmw"
	"gallery/internal/obs/profile"
)

// Continuous-profiling endpoints. The GET is reader-class like the other
// debug surfaces: it serves compact per-process function summaries, not
// raw pprof data, so it leaks no memory contents. The POST is the
// cross-process ingest gateways ship their window summaries into —
// publisher-class, mirroring POST /v1/debug/traces.

func (s *Server) profileRoutes() {
	s.handle("GET /v1/debug/profile", s.handleDebugProfile)
	s.handle("POST /v1/debug/profile", s.handleIngestProfile)
}

// handleDebugProfile serves the fleet view: every process that has
// reported (the local daemon plus any shipping gateways), each folded
// per kind across retained windows. ?merge=1h restricts the fold to
// recent windows; ?n=10 bounds functions per summary.
func (s *Server) handleDebugProfile(w http.ResponseWriter, r *http.Request) {
	merge, topN, err := profile.ParseViewQuery(r.URL.Query())
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %s", core.ErrBadSpec, err))
		return
	}
	w.Header().Set("Cache-Control", "no-store")
	httpmw.WriteJSON(w, http.StatusOK, s.profiles.Snapshot(merge, topN, time.Now()))
}

// handleIngestProfile accepts one process's summary shipment. 202 like
// the trace ingest: the shipment is folded into in-memory rings, not
// durably stored.
func (s *Server) handleIngestProfile(w http.ResponseWriter, r *http.Request) {
	var req profile.IngestRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.Process == "" {
		writeErr(w, fmt.Errorf("%w: process must not be empty", core.ErrBadSpec))
		return
	}
	if len(req.Summaries) == 0 {
		writeErr(w, fmt.Errorf("%w: summaries must not be empty", core.ErrBadSpec))
		return
	}
	// A ring keeps one slice per kind, so an unknown kind would grow it
	// without bound; refuse the whole shipment before any of it lands.
	for _, sum := range req.Summaries {
		if !profile.KnownKind(sum.Kind) {
			writeErr(w, fmt.Errorf("%w: unknown profile kind %q", core.ErrBadSpec, sum.Kind))
			return
		}
	}
	s.profiles.Ingest(req.Process, req.Summaries)
	w.WriteHeader(http.StatusAccepted)
}
