package server

import (
	"net/http"

	"gallery/internal/api"
	"gallery/internal/obs/httpmw"
	"gallery/internal/slo"
)

// SLO objective endpoints. Writes are operator-class under auth (see
// tenant.Classify) and additionally namespace-scoped: an objective is
// tenant state, so operators may only declare or delete objectives in
// their own namespace (default-namespace operators, as instance admins,
// may target any) — the same split the /v1/tenants handlers enforce.
// Reads are reader-class like every other GET.

func (s *Server) sloRoutes() {
	s.handle("POST /v1/slo", s.handleCreateSLO)
	s.handle("GET /v1/slo", s.handleListSLOs)
	s.handle("DELETE /v1/slo/{id}", s.handleDeleteSLO)
	s.handle("GET /v1/slo/status", s.handleSLOStatus)
}

// authorizeSLOWrite enforces namespace ownership of an SLO mutation.
// No-op with auth off, like the model/instance ownership helpers.
func (s *Server) authorizeSLOWrite(r *http.Request, targetNS string) error {
	if s.tenants == nil {
		return nil
	}
	_, err := s.admin(r, targetNS)
	return err
}

func (s *Server) handleCreateSLO(w http.ResponseWriter, r *http.Request) {
	var req api.CreateSLORequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	// An empty namespace passes the scope check but is rejected by
	// Create's validation below, so nothing unowned slips through.
	if err := s.authorizeSLOWrite(r, req.Namespace); err != nil {
		writeErr(w, err)
		return
	}
	o, err := s.slo.Create(r.Context(), slo.Objective{
		Namespace:        req.Namespace,
		ModelID:          req.ModelID,
		Kind:             slo.Kind(req.Kind),
		Target:           req.Target,
		LatencyThreshold: req.LatencyThresholdMS / 1000,
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	httpmw.WriteJSON(w, http.StatusCreated, sloToAPI(o))
}

func (s *Server) handleListSLOs(w http.ResponseWriter, r *http.Request) {
	objs := s.slo.List()
	out := api.SLOList{SLOs: make([]api.SLO, 0, len(objs))}
	for _, o := range objs {
		out.SLOs = append(out.SLOs, sloToAPI(o))
	}
	httpmw.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleDeleteSLO(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.tenants != nil {
		// Resolve the objective to find whose namespace it belongs to
		// before authorizing: deleting another tenant's objective would
		// silence their alerts.
		o, err := s.slo.Get(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		if err := s.authorizeSLOWrite(r, o.Namespace); err != nil {
			writeErr(w, err)
			return
		}
	}
	if err := s.slo.Delete(r.Context(), id); err != nil {
		writeErr(w, err)
		return
	}
	httpmw.WriteJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (s *Server) handleSLOStatus(w http.ResponseWriter, r *http.Request) {
	sts := s.slo.Statuses()
	out := api.SLOStatusList{Statuses: make([]api.SLOStatus, 0, len(sts))}
	for _, st := range sts {
		out.Statuses = append(out.Statuses, api.SLOStatus{
			SLO:             sloToAPI(st.Objective),
			Breached:        st.Breached,
			Severity:        st.Severity,
			BurnFast:        st.BurnFast,
			BurnSlow:        st.BurnSlow,
			BudgetRemaining: st.BudgetRemaining,
			NoData:          st.NoData,
			LastChange:      st.LastChange,
		})
	}
	httpmw.WriteJSON(w, http.StatusOK, out)
}

func sloToAPI(o slo.Objective) api.SLO {
	return api.SLO{
		ID:                 o.ID,
		Namespace:          o.Namespace,
		ModelID:            o.ModelID,
		Kind:               string(o.Kind),
		Target:             o.Target,
		LatencyThresholdMS: o.LatencyThreshold * 1000,
		Created:            o.Created,
	}
}
