package server

// This file holds the multi-tenant admin endpoints (/v1/tenants) and the
// quota hooks the model/instance mutation paths call. Everything here is
// mounted and enforced only when Options.Tenants is set; without it the
// server runs exactly as before.

import (
	"context"
	"fmt"
	"net/http"

	"gallery/internal/api"
	"gallery/internal/obs/httpmw"
	"gallery/internal/tenant"
	"gallery/internal/uuid"
)

func (s *Server) tenantRoutes() {
	s.handle("POST /v1/tenants", s.handleCreateNamespace)
	s.handle("GET /v1/tenants", s.handleListNamespaces)
	s.handle("POST /v1/tenants/{ns}/quotas", s.handleSetQuotas)
	s.handle("POST /v1/tenants/{ns}/tokens", s.handleMintToken)
	s.handle("GET /v1/tenants/{ns}/tokens", s.handleListTokens)
	s.handle("DELETE /v1/tenants/{ns}/tokens/{id}", s.handleRevokeToken)
}

// admin resolves the caller for a tenant-admin request and enforces its
// scope: operators administer their own namespace; operators of the
// default namespace are instance admins and may administer any. The
// route-level role check (operator) already ran in the middleware.
func (s *Server) admin(r *http.Request, targetNS string) (tenant.Identity, error) {
	id, ok := s.tenants.ResolveRequest(r)
	if !ok {
		// Unreachable when the auth middleware is mounted; defensive.
		return tenant.Identity{}, fmt.Errorf("%w: no identity", tenant.ErrForbidden)
	}
	if id.Namespace != tenant.DefaultNamespace && targetNS != "" && targetNS != id.Namespace {
		return id, fmt.Errorf("%w: operator of %q cannot administer namespace %q", tenant.ErrForbidden, id.Namespace, targetNS)
	}
	return id, nil
}

func (s *Server) handleCreateNamespace(w http.ResponseWriter, r *http.Request) {
	// Creating namespaces is instance administration: default-ns only.
	id, err := s.admin(r, "")
	if err == nil && id.Namespace != tenant.DefaultNamespace {
		err = fmt.Errorf("%w: only %q operators create namespaces", tenant.ErrForbidden, tenant.DefaultNamespace)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	var req api.CreateNamespaceRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	ns := tenant.Namespace{
		Name:         req.Name,
		MaxModels:    req.MaxModels,
		MaxBlobBytes: req.MaxBlobBytes,
		RatePerSec:   req.RatePerSec,
		Burst:        req.Burst,
	}
	if err := s.tenants.CreateNamespace(r.Context(), ns); err != nil {
		writeErr(w, err)
		return
	}
	got, u, err := s.tenants.GetNamespace(req.Name)
	if err != nil {
		writeErr(w, err)
		return
	}
	httpmw.WriteJSON(w, http.StatusCreated, namespaceDTO(got, u))
}

func (s *Server) handleListNamespaces(w http.ResponseWriter, r *http.Request) {
	id, err := s.admin(r, "")
	if err != nil {
		writeErr(w, err)
		return
	}
	var out api.TenantsResponse
	for _, ns := range s.tenants.Namespaces() {
		// Own-namespace operators see only their tenant; instance admins
		// see the fleet.
		if id.Namespace != tenant.DefaultNamespace && ns.Name != id.Namespace {
			continue
		}
		u, _ := s.tenants.GetUsage(ns.Name)
		out.Namespaces = append(out.Namespaces, namespaceDTO(ns, u))
	}
	httpmw.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleSetQuotas(w http.ResponseWriter, r *http.Request) {
	target := r.PathValue("ns")
	// Quota bounds are imposed on tenants, not chosen by them.
	id, err := s.admin(r, "")
	if err == nil && id.Namespace != tenant.DefaultNamespace {
		err = fmt.Errorf("%w: only %q operators set quotas", tenant.ErrForbidden, tenant.DefaultNamespace)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	var req api.SetQuotasRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if err := s.tenants.SetQuotas(r.Context(), target, req.MaxModels, req.MaxBlobBytes, req.RatePerSec, req.Burst); err != nil {
		writeErr(w, err)
		return
	}
	ns, u, err := s.tenants.GetNamespace(target)
	if err != nil {
		writeErr(w, err)
		return
	}
	httpmw.WriteJSON(w, http.StatusOK, namespaceDTO(ns, u))
}

func (s *Server) handleMintToken(w http.ResponseWriter, r *http.Request) {
	target := r.PathValue("ns")
	if _, err := s.admin(r, target); err != nil {
		writeErr(w, err)
		return
	}
	var req api.MintTokenRequest
	if err := s.decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	role, err := tenant.ParseRole(req.Role)
	if err != nil {
		writeErr(w, err)
		return
	}
	secret, tok, err := s.tenants.MintToken(r.Context(), target, req.Name, role)
	if err != nil {
		writeErr(w, err)
		return
	}
	httpmw.WriteJSON(w, http.StatusCreated, api.MintTokenResponse{Secret: secret, Token: tokenDTO(tok)})
}

func (s *Server) handleListTokens(w http.ResponseWriter, r *http.Request) {
	target := r.PathValue("ns")
	if _, err := s.admin(r, target); err != nil {
		writeErr(w, err)
		return
	}
	var out api.TenantTokensResponse
	for _, tok := range s.tenants.Tokens(target) {
		out.Tokens = append(out.Tokens, tokenDTO(tok))
	}
	httpmw.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleRevokeToken(w http.ResponseWriter, r *http.Request) {
	target := r.PathValue("ns")
	if _, err := s.admin(r, target); err != nil {
		writeErr(w, err)
		return
	}
	tokID := r.PathValue("id")
	// Scope the lookup to the namespace in the path so an operator cannot
	// revoke across tenants by guessing IDs.
	found := false
	for _, tok := range s.tenants.Tokens(target) {
		if tok.ID == tokID {
			found = true
			break
		}
	}
	if !found {
		writeErr(w, fmt.Errorf("%w: token %q in namespace %q", tenant.ErrNotFound, tokID, target))
		return
	}
	if err := s.tenants.RevokeToken(r.Context(), tokID); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func namespaceDTO(ns tenant.Namespace, u tenant.Usage) api.TenantNamespace {
	return api.TenantNamespace{
		Name:         ns.Name,
		MaxModels:    ns.MaxModels,
		MaxBlobBytes: ns.MaxBlobBytes,
		RatePerSec:   ns.RatePerSec,
		Burst:        ns.Burst,
		Models:       u.Models,
		BlobBytes:    u.BlobBytes,
		Created:      ns.Created,
	}
}

func tokenDTO(t tenant.Token) api.TenantToken {
	return api.TenantToken{
		ID:        t.ID,
		Name:      t.Name,
		Namespace: t.Namespace,
		Role:      t.Role.String(),
		Created:   t.Created,
		Revoked:   t.Revoked,
	}
}

// --- namespace ownership and quota hooks ---

// The middleware's role check is coarse (publisher may mutate); the
// helpers below add the fine-grained half of tenant isolation: a
// mutation must target a model the caller's namespace owns. Ownership
// derives from the model name's `team/` prefix (tenant.Split), and
// identities of the default namespace are exempt — they are instance
// admins and act across tenants, the same exemption the tenant-admin
// endpoints apply. All helpers are no-ops when auth is off.

// noRelease is the nil-tenant release func: quota was never reserved.
func noRelease() {}

// resolveIdentity returns the verified caller. Failure is unreachable
// when the auth middleware is mounted; defensive.
func (s *Server) resolveIdentity(r *http.Request) (tenant.Identity, error) {
	id, ok := s.tenants.ResolveRequest(r)
	if !ok {
		return tenant.Identity{}, fmt.Errorf("%w: no identity", tenant.ErrForbidden)
	}
	return id, nil
}

// authorizeModelWrite enforces namespace ownership of the named model
// for a mutation, returning the owning namespace for quota accounting.
func (s *Server) authorizeModelWrite(r *http.Request, modelName string) (owner string, err error) {
	if s.tenants == nil {
		return "", nil
	}
	id, err := s.resolveIdentity(r)
	if err != nil {
		return "", err
	}
	ns, _ := tenant.Split(modelName)
	if ns != id.Namespace && id.Namespace != tenant.DefaultNamespace {
		return "", fmt.Errorf("%w: model %q is owned by namespace %q, caller is %q",
			tenant.ErrForbidden, modelName, ns, id.Namespace)
	}
	return ns, nil
}

// authorizeModelIDWrite is authorizeModelWrite for ID-addressed routes:
// the model is resolved to find its owning namespace, so a token cannot
// reach another tenant's model just by knowing its UUID.
func (s *Server) authorizeModelIDWrite(r *http.Request, modelID uuid.UUID) (owner string, err error) {
	if s.tenants == nil {
		return "", nil
	}
	m, err := s.reg.GetModel(modelID)
	if err != nil {
		return "", err
	}
	return s.authorizeModelWrite(r, m.Name)
}

// authorizeInstanceWrite resolves an instance to the namespace owning
// its model and enforces ownership for a mutation.
func (s *Server) authorizeInstanceWrite(r *http.Request, instanceID uuid.UUID) (owner string, err error) {
	if s.tenants == nil {
		return "", nil
	}
	in, err := s.reg.GetInstance(r.Context(), instanceID)
	if err != nil {
		return "", err
	}
	return s.authorizeModelIDWrite(r, in.ModelID)
}

// reserveModelQuota validates ownership of a registration's `team/model`
// name and charges the slot to the model's OWNING namespace — not the
// caller's — so ownership and usage accounting never diverge when an
// instance admin registers on a tenant's behalf. Bare (unprefixed) names
// live in the default namespace, so only default-namespace callers may
// create them. The returned release undoes the reservation when the
// registration fails downstream.
func (s *Server) reserveModelQuota(r *http.Request, modelName string) (func(), error) {
	if s.tenants == nil {
		return noRelease, nil
	}
	ns, err := s.authorizeModelWrite(r, modelName)
	if err != nil {
		return nil, err
	}
	if err := s.tenants.ReserveModel(r.Context(), ns); err != nil {
		return nil, err
	}
	return func() { s.tenants.ReleaseModel(context.WithoutCancel(r.Context()), ns) }, nil
}

// releaseModelQuota returns a retired model's slot to its owning
// namespace. Called exactly once per active→deprecated transition.
func (s *Server) releaseModelQuota(ctx context.Context, owner string) {
	if s.tenants == nil || owner == "" {
		return
	}
	s.tenants.ReleaseModel(ctx, owner)
}

// reserveBlobQuota charges n blob bytes against the namespace owning the
// written-to model before the blob-first write begins, so concurrent
// uploads cannot jointly overshoot the quota; release returns the bytes
// when the write fails. owner is the namespace the ownership check
// returned ("" with auth off).
func (s *Server) reserveBlobQuota(ctx context.Context, owner string, n int64) (func(), error) {
	if s.tenants == nil {
		return noRelease, nil
	}
	if err := s.tenants.ReserveBlob(ctx, owner, n); err != nil {
		return nil, err
	}
	return func() { s.tenants.ReleaseBlob(context.WithoutCancel(ctx), owner, n) }, nil
}
