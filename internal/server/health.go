package server

import (
	"fmt"
	"net/http"

	"gallery/internal/api"
	"gallery/internal/core"
	"gallery/internal/obs/httpmw"
)

// Continuous model-health endpoints, mounted when Options.Health is set.
// Serving gateways POST windowed distribution sketches here; operators and
// galleryctl read the monitor's per-model verdicts back out.

func (s *Server) handleHealthObservations(w http.ResponseWriter, r *http.Request) {
	var req api.HealthObservationsRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	resp, err := s.health.Ingest(r.Context(), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	httpmw.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleListModelHealth(w http.ResponseWriter, r *http.Request) {
	httpmw.WriteJSON(w, http.StatusOK, s.health.List())
}

func (s *Server) handleGetModelHealth(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	mh, ok := s.health.ModelHealth(id)
	if !ok {
		writeErr(w, fmt.Errorf("%w: no health state for model %s", core.ErrNotFound, id))
		return
	}
	httpmw.WriteJSON(w, http.StatusOK, mh)
}
