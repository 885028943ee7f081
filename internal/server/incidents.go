package server

import (
	"net/http"

	"gallery/internal/api"
	"gallery/internal/incident"
	"gallery/internal/obs/httpmw"
	"gallery/internal/obs/trace"
	"gallery/internal/tenant"
)

// Incident flight-recorder endpoints. Reads are reader-class like every
// other GET but namespace-scoped under auth: a tenant sees only bundles
// attributed to its namespace, while default-namespace identities (the
// operators running the instance) see everything. The manual trigger is
// operator-class (see tenant.Classify) and scoped the same way as SLO
// administration: a tenant operator may only capture against their own
// namespace.

func (s *Server) incidentRoutes() {
	s.handle("POST /v1/incidents", s.handleTriggerIncident)
	s.handle("GET /v1/incidents", s.handleListIncidents)
	s.handle("GET /v1/incidents/{id}", s.handleGetIncident)
}

func (s *Server) handleTriggerIncident(w http.ResponseWriter, r *http.Request) {
	var req api.TriggerIncidentRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if s.tenants != nil {
		id, err := s.admin(r, req.Namespace)
		if err != nil {
			writeErr(w, err)
			return
		}
		if req.Namespace == "" && id.Namespace != tenant.DefaultNamespace {
			// Attribute a tenant operator's capture to their namespace so
			// the bundle stays visible to them on the list path.
			req.Namespace = id.Namespace
		}
	}
	inc, err := s.incidents.Trigger(r.Context(), incident.Trigger{
		Kind:      "manual",
		Namespace: req.Namespace,
		ModelID:   req.ModelID,
		Reason:    req.Reason,
		TraceID:   trace.FromContext(r.Context()).TraceIDString(),
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	httpmw.WriteJSON(w, http.StatusCreated, inc)
}

func (s *Server) handleListIncidents(w http.ResponseWriter, r *http.Request) {
	ns := ""
	if s.tenants != nil {
		if id, ok := s.tenants.ResolveRequest(r); ok && id.Namespace != tenant.DefaultNamespace {
			ns = id.Namespace
		}
	}
	incs, err := s.incidents.List(ns)
	if err != nil {
		writeErr(w, err)
		return
	}
	httpmw.WriteJSON(w, http.StatusOK, api.IncidentList{Incidents: incs})
}

func (s *Server) handleGetIncident(w http.ResponseWriter, r *http.Request) {
	inc, bundle, err := s.incidents.Get(r.Context(), r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	if s.tenants != nil {
		if id, ok := s.tenants.ResolveRequest(r); ok &&
			id.Namespace != tenant.DefaultNamespace && inc.Namespace != id.Namespace {
			// Cross-tenant fetches 404 rather than 403: confirming the
			// bundle exists would already leak another tenant's incident.
			writeErr(w, incident.ErrNotFound)
			return
		}
	}
	httpmw.WriteJSON(w, http.StatusOK, api.IncidentDetail{Incident: inc, Bundle: bundle})
}
