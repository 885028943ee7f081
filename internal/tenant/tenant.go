// Package tenant is Gallery's multi-tenant control plane: first-class
// namespaces with per-tenant quotas and rate limits, and bearer-token
// authentication with per-namespace roles. The paper's Gallery served
// every ML team at the company from one shared registry; this package is
// the governance layer that makes such sharing safe — a caller is no
// longer a self-declared X-Gallery-Actor string but a verified token
// bound to a namespace and a role.
//
// Namespaces, tokens, and quota usage live in the same relational store
// (and therefore the same WAL) as the rest of the metadata, so the whole
// control plane survives restarts through ordinary WAL replay: a token
// minted before a crash still authenticates after recovery, and a
// namespace's consumed quota is not forgotten.
//
// Model names adopt a `team/model` convention: the segment before the
// first '/' is the owning namespace; names without a prefix belong to the
// "default" namespace, which always exists and keeps single-tenant
// deployments working unchanged.
package tenant

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gallery/internal/audit"
	"gallery/internal/clock"
	"gallery/internal/obs"
	"gallery/internal/relstore"
	"gallery/internal/uuid"
)

// DefaultNamespace is the back-compat namespace: unprefixed model names
// live here, and it is created automatically with unlimited quotas.
const DefaultNamespace = "default"

// Table names in the metadata store.
const (
	NamespacesTable = "tenant_namespaces"
	TokensTable     = "tenant_tokens"
	UsageTable      = "tenant_usage"
)

// Sentinel errors. The HTTP layer maps them onto status codes:
// ErrForbidden and ErrModelQuota → 403, ErrBlobQuota → 413,
// ErrNotFound → 404, ErrExists → 409, ErrBadSpec → 400.
var (
	ErrNotFound   = errors.New("tenant: not found")
	ErrExists     = errors.New("tenant: already exists")
	ErrBadSpec    = errors.New("tenant: bad spec")
	ErrForbidden  = errors.New("tenant: forbidden")
	ErrModelQuota = errors.New("tenant: model quota exceeded")
	ErrBlobQuota  = errors.New("tenant: blob quota exceeded")
)

// Role orders a token's capabilities within its namespace. Higher roles
// include lower ones.
type Role int

const (
	// RoleReader may read metadata and request predictions.
	RoleReader Role = iota + 1
	// RolePublisher may additionally register models, upload instances,
	// record metrics, and promote/deprecate within its namespace.
	RolePublisher
	// RoleOperator may additionally manage the namespace itself: mint and
	// revoke tokens, set quotas, and commit rules. Operators of the
	// "default" namespace are instance administrators: they may create
	// namespaces and act across all of them.
	RoleOperator
)

// ParseRole reads a role name.
func ParseRole(s string) (Role, error) {
	switch strings.ToLower(s) {
	case "reader":
		return RoleReader, nil
	case "publisher":
		return RolePublisher, nil
	case "operator":
		return RoleOperator, nil
	}
	return 0, fmt.Errorf("%w: unknown role %q (want reader|publisher|operator)", ErrBadSpec, s)
}

func (r Role) String() string {
	switch r {
	case RoleReader:
		return "reader"
	case RolePublisher:
		return "publisher"
	case RoleOperator:
		return "operator"
	}
	return fmt.Sprintf("role(%d)", int(r))
}

// Namespace is one tenant: its identity and its limits. Zero limit fields
// mean unlimited.
type Namespace struct {
	Name         string
	MaxModels    int64   // models the namespace may own
	MaxBlobBytes int64   // total blob bytes the namespace may store
	RatePerSec   float64 // sustained request rate across the namespace's tokens
	Burst        int64   // token-bucket depth (defaults to max(1, RatePerSec) when rate is set)
	Created      time.Time
}

// Token is a minted credential (the secret itself is never stored — only
// its SHA-256).
type Token struct {
	ID        string
	Name      string // human identity, e.g. "alice" or "gateway-sf"
	Namespace string
	Role      Role
	Created   time.Time
	Revoked   bool
}

// Identity is a resolved caller.
type Identity struct {
	TokenID   string
	Name      string
	Namespace string
	Role      Role
	// Actor is the audit-trail form: "<namespace>/<name>".
	Actor string
}

// Usage is a namespace's consumed quota.
type Usage struct {
	Models    int64
	BlobBytes int64
}

// Split derives the owning namespace from a `team/model` name. Names
// without a '/' belong to the default namespace.
func Split(name string) (ns, rest string) {
	if i := strings.IndexByte(name, '/'); i > 0 {
		return name[:i], name[i+1:]
	}
	return DefaultNamespace, name
}

// Options configures a Manager.
type Options struct {
	// Clock drives rate-limiter refill and creation stamps; nil uses the
	// wall clock.
	Clock clock.Clock
	// UUIDs mints token IDs and secrets; nil uses the crypto/rand
	// generator. Experiments inject a seeded one for determinism.
	UUIDs *uuid.Generator
	// Obs receives the tenant_* metrics; nil uses obs.Default.
	Obs *obs.Registry
	// Audit, when set, receives an event for every authorization denial
	// and every control-plane mutation (namespace created, token minted or
	// revoked, quotas changed).
	Audit *audit.Log
}

// nsState is a namespace's in-memory face: limits, usage counters, and
// the token bucket. Usage mutates under Manager.mu; the bucket has its
// own lock so the hot path never takes the manager lock for writing.
type nsState struct {
	Namespace
	usage   Usage
	limiter *bucket
}

// tokenState is shared between the hash index and the secret cache, so a
// revocation flips one flag and every lookup path sees it immediately.
type tokenState struct {
	Token
	id      Identity
	ns      *nsState
	revoked atomic.Bool
}

// Manager is the control plane over one metadata store. It is safe for
// concurrent use; the authentication hot path is a lock-free cache lookup
// plus one per-namespace mutex for the rate limiter.
type Manager struct {
	store *relstore.Store
	clk   clock.Clock
	gen   *uuid.Generator
	aud   *audit.Log
	reg   *obs.Registry

	cUnauthenticated *obs.Counter // tenant_unauthenticated_total
	cForbidden       *obs.Counter // tenant_forbidden_total
	cRateLimited     *obs.Counter // tenant_rate_limited_total
	cQuotaDenied     *obs.Counter // tenant_quota_denied_total
	cActorIgnored    *obs.Counter // tenant_actor_header_ignored_total
	cUsageErrs       *obs.Counter // tenant_usage_persist_errors_total

	mu         sync.RWMutex
	namespaces map[string]*nsState
	byHash     map[string]*tokenState // sha256-hex(secret) → state

	// cache maps raw secrets seen at runtime to their verified state, so
	// steady-state authentication is one sync.Map load and zero
	// allocations. Only secrets that hash-verified enter, bounding it by
	// the token count.
	cache sync.Map
}

// Open declares the tenant tables on store (idempotent over a recovered
// store), loads every namespace, token, and usage row back into memory,
// and guarantees the default namespace exists.
func Open(store *relstore.Store, opts Options) (*Manager, error) {
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.UUIDs == nil {
		opts.UUIDs = uuid.NewGenerator()
	}
	if opts.Obs == nil {
		opts.Obs = obs.Default
	}
	for _, schema := range []relstore.Schema{namespacesSchema(), tokensSchema(), usageSchema()} {
		if err := store.CreateTable(schema); err != nil {
			return nil, err
		}
	}
	m := &Manager{
		store:            store,
		clk:              opts.Clock,
		gen:              opts.UUIDs,
		aud:              opts.Audit,
		reg:              opts.Obs,
		cUnauthenticated: opts.Obs.Counter("tenant_unauthenticated_total"),
		cForbidden:       opts.Obs.Counter("tenant_forbidden_total"),
		cRateLimited:     opts.Obs.Counter("tenant_rate_limited_total"),
		cQuotaDenied:     opts.Obs.Counter("tenant_quota_denied_total"),
		cActorIgnored:    opts.Obs.Counter("tenant_actor_header_ignored_total"),
		cUsageErrs:       opts.Obs.Counter("tenant_usage_persist_errors_total"),
		namespaces:       make(map[string]*nsState),
		byHash:           make(map[string]*tokenState),
	}
	if err := m.recover(); err != nil {
		return nil, err
	}
	if _, ok := m.namespaces[DefaultNamespace]; !ok {
		if err := m.CreateNamespace(context.Background(), Namespace{Name: DefaultNamespace}); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// recover replays the persisted control plane into memory. WAL replay
// already rebuilt the tables; this walks them.
func (m *Manager) recover() error {
	nsRows, err := m.store.Select(context.Background(), relstore.Query{Table: NamespacesTable})
	if err != nil {
		return err
	}
	for _, r := range nsRows {
		ns := rowToNamespace(r)
		m.namespaces[ns.Name] = newNSState(ns)
	}
	useRows, err := m.store.Select(context.Background(), relstore.Query{Table: UsageTable})
	if err != nil {
		return err
	}
	for _, r := range useRows {
		if st, ok := m.namespaces[r["namespace"].Str]; ok {
			st.usage = Usage{Models: r["models"].Int(), BlobBytes: r["blob_bytes"].Int()}
		}
	}
	tokRows, err := m.store.Select(context.Background(), relstore.Query{Table: TokensTable})
	if err != nil {
		return err
	}
	for _, r := range tokRows {
		tok, hash := rowToToken(r)
		st, ok := m.namespaces[tok.Namespace]
		if !ok {
			// A token whose namespace row is gone cannot authorize anything.
			continue
		}
		m.indexToken(tok, hash, st)
	}
	return nil
}

// indexToken installs a token into the hash index. Caller holds mu (or is
// still single-threaded during recovery).
func (m *Manager) indexToken(tok Token, hash string, st *nsState) *tokenState {
	ts := &tokenState{Token: tok, ns: st, id: Identity{
		TokenID:   tok.ID,
		Name:      tok.Name,
		Namespace: tok.Namespace,
		Role:      tok.Role,
		Actor:     tok.Namespace + "/" + tok.Name,
	}}
	ts.revoked.Store(tok.Revoked)
	m.byHash[hash] = ts
	return ts
}

func newNSState(ns Namespace) *nsState {
	st := &nsState{Namespace: ns}
	st.limiter = newBucket(ns.RatePerSec, ns.Burst)
	return st
}

// --- namespaces and quotas ---

// CreateNamespace registers a tenant. The name must be a single
// slash-free segment.
func (m *Manager) CreateNamespace(ctx context.Context, ns Namespace) error {
	if ns.Name == "" || strings.ContainsAny(ns.Name, "/ \t\n") {
		return fmt.Errorf("%w: namespace name %q must be one slash-free word", ErrBadSpec, ns.Name)
	}
	if ns.Created.IsZero() {
		ns.Created = m.clk.Now()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.namespaces[ns.Name]; ok {
		return fmt.Errorf("%w: namespace %q", ErrExists, ns.Name)
	}
	if err := m.store.InsertCtx(ctx, NamespacesTable, namespaceToRow(ns)); err != nil {
		return err
	}
	if err := m.store.InsertCtx(ctx, UsageTable, usageToRow(ns.Name, Usage{})); err != nil {
		return err
	}
	m.namespaces[ns.Name] = newNSState(ns)
	m.recordAdmin(ctx, "tenant.ns_create", ns.Name, "", fmt.Sprintf("max_models=%d max_blob_bytes=%d rate=%g burst=%d",
		ns.MaxModels, ns.MaxBlobBytes, ns.RatePerSec, ns.Burst))
	return nil
}

// SetQuotas overwrites a namespace's limits (all four fields).
func (m *Manager) SetQuotas(ctx context.Context, name string, maxModels, maxBlobBytes int64, ratePerSec float64, burst int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[name]
	if !ok {
		return fmt.Errorf("%w: namespace %q", ErrNotFound, name)
	}
	before := fmt.Sprintf("max_models=%d max_blob_bytes=%d rate=%g burst=%d",
		st.MaxModels, st.MaxBlobBytes, st.RatePerSec, st.Burst)
	st.MaxModels, st.MaxBlobBytes = maxModels, maxBlobBytes
	st.RatePerSec, st.Burst = ratePerSec, burst
	if err := m.store.Update(ctx, NamespacesTable, namespaceToRow(st.Namespace)); err != nil {
		return err
	}
	st.limiter.configure(ratePerSec, burst)
	m.recordAdmin(ctx, "tenant.quotas_set", name, before, fmt.Sprintf("max_models=%d max_blob_bytes=%d rate=%g burst=%d",
		maxModels, maxBlobBytes, ratePerSec, burst))
	return nil
}

// Namespaces lists tenants sorted by name.
func (m *Manager) Namespaces() []Namespace {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Namespace, 0, len(m.namespaces))
	for _, st := range m.namespaces {
		out = append(out, st.Namespace)
	}
	sortNamespaces(out)
	return out
}

// GetNamespace returns one tenant and its usage.
func (m *Manager) GetNamespace(name string) (Namespace, Usage, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st, ok := m.namespaces[name]
	if !ok {
		return Namespace{}, Usage{}, fmt.Errorf("%w: namespace %q", ErrNotFound, name)
	}
	return st.Namespace, st.usage, nil
}

// GetUsage returns a namespace's consumed quota.
func (m *Manager) GetUsage(name string) (Usage, error) {
	_, u, err := m.GetNamespace(name)
	return u, err
}

// --- tokens ---

// MintToken creates a credential in a namespace and returns the secret —
// shown exactly once; only its hash persists.
func (m *Manager) MintToken(ctx context.Context, namespace, name string, role Role) (secret string, tok Token, err error) {
	if name == "" {
		return "", Token{}, fmt.Errorf("%w: token needs a name", ErrBadSpec)
	}
	if role < RoleReader || role > RoleOperator {
		return "", Token{}, fmt.Errorf("%w: bad role", ErrBadSpec)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[namespace]
	if !ok {
		return "", Token{}, fmt.Errorf("%w: namespace %q", ErrNotFound, namespace)
	}
	secret = "gal_" + strings.ReplaceAll(m.gen.New().String()+m.gen.New().String(), "-", "")
	tok = Token{
		ID:        m.gen.New().String(),
		Name:      name,
		Namespace: namespace,
		Role:      role,
		Created:   m.clk.Now(),
	}
	hash := HashSecret(secret)
	if err := m.store.InsertCtx(ctx, TokensTable, tokenToRow(tok, hash)); err != nil {
		return "", Token{}, err
	}
	m.indexToken(tok, hash, st)
	m.recordAdmin(ctx, "tenant.token_mint", namespace, "", fmt.Sprintf("token %s (%s, %s)", tok.ID, name, role))
	return secret, tok, nil
}

// EnsureToken installs a token with a caller-chosen secret if no token
// with that secret exists yet — the bootstrap path for seed files, where
// the operator already holds the secret. Idempotent per secret.
func (m *Manager) EnsureToken(ctx context.Context, secret, namespace, name string, role Role) (Token, error) {
	if secret == "" {
		return Token{}, fmt.Errorf("%w: empty secret", ErrBadSpec)
	}
	if name == "" {
		return Token{}, fmt.Errorf("%w: token needs a name", ErrBadSpec)
	}
	if role < RoleReader || role > RoleOperator {
		return Token{}, fmt.Errorf("%w: bad role", ErrBadSpec)
	}
	hash := HashSecret(secret)
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts, ok := m.byHash[hash]; ok {
		return ts.Token, nil
	}
	st, ok := m.namespaces[namespace]
	if !ok {
		return Token{}, fmt.Errorf("%w: namespace %q", ErrNotFound, namespace)
	}
	tok := Token{
		ID:        m.gen.New().String(),
		Name:      name,
		Namespace: namespace,
		Role:      role,
		Created:   m.clk.Now(),
	}
	if err := m.store.InsertCtx(ctx, TokensTable, tokenToRow(tok, hash)); err != nil {
		return Token{}, err
	}
	m.indexToken(tok, hash, st)
	m.recordAdmin(ctx, "tenant.token_mint", namespace, "", fmt.Sprintf("token %s (%s, %s, seeded)", tok.ID, name, role))
	return tok, nil
}

// RevokeToken invalidates a credential. The revocation takes effect on
// the very next request: the shared state flag flips before the persisted
// row is updated, so even cached lookups reject immediately.
func (m *Manager) RevokeToken(ctx context.Context, tokenID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for hash, ts := range m.byHash {
		if ts.ID != tokenID {
			continue
		}
		if ts.revoked.Load() {
			return nil // already revoked; idempotent
		}
		ts.revoked.Store(true)
		ts.Revoked = true
		if err := m.store.Update(ctx, TokensTable, tokenToRow(ts.Token, hash)); err != nil {
			ts.revoked.Store(false)
			ts.Revoked = false
			return err
		}
		m.recordAdmin(ctx, "tenant.token_revoke", ts.Token.Namespace, "", fmt.Sprintf("token %s (%s)", ts.ID, ts.Name))
		return nil
	}
	return fmt.Errorf("%w: token %q", ErrNotFound, tokenID)
}

// Tokens lists a namespace's tokens (no secrets), sorted by creation.
func (m *Manager) Tokens(namespace string) []Token {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []Token
	for _, ts := range m.byHash {
		if ts.Token.Namespace == namespace {
			out = append(out, ts.Token)
		}
	}
	sortTokens(out)
	return out
}

// TokenCount reports how many unrevoked tokens exist across all
// namespaces — the bootstrap check.
func (m *Manager) TokenCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, ts := range m.byHash {
		if !ts.revoked.Load() {
			n++
		}
	}
	return n
}

// Resolve authenticates a raw secret. The steady-state path is one cache
// load and the revocation-flag check; the first sighting of each secret
// pays one SHA-256.
func (m *Manager) Resolve(secret string) (Identity, bool) {
	ts, ok := m.resolveState(secret)
	if !ok {
		return Identity{}, false
	}
	return ts.id, true
}

func (m *Manager) resolveState(secret string) (*tokenState, bool) {
	if secret == "" {
		return nil, false
	}
	if v, ok := m.cache.Load(secret); ok {
		ts := v.(*tokenState)
		if ts.revoked.Load() {
			return nil, false
		}
		return ts, true
	}
	hash := HashSecret(secret)
	m.mu.RLock()
	ts, ok := m.byHash[hash]
	m.mu.RUnlock()
	if !ok {
		return nil, false
	}
	m.cache.Store(strings.Clone(secret), ts)
	if ts.revoked.Load() {
		return nil, false
	}
	return ts, true
}

// HashSecret is the persisted form of a token secret.
func HashSecret(secret string) string {
	sum := sha256.Sum256([]byte(secret))
	return hex.EncodeToString(sum[:])
}

// --- quota accounting ---

// ReserveModel charges one model slot to a namespace, rejecting with
// ErrModelQuota when the namespace is at its bound. Callers release on
// downstream failure so a rejected registration does not leak quota.
func (m *Manager) ReserveModel(ctx context.Context, namespace string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[namespace]
	if !ok {
		return fmt.Errorf("%w: namespace %q", ErrNotFound, namespace)
	}
	if st.MaxModels > 0 && st.usage.Models+1 > st.MaxModels {
		m.cQuotaDenied.Inc()
		return fmt.Errorf("%w: namespace %q at %d/%d models", ErrModelQuota, namespace, st.usage.Models, st.MaxModels)
	}
	st.usage.Models++
	m.persistUsageLocked(ctx, st)
	return nil
}

// ReleaseModel returns a model slot (registration failed downstream, or a
// model was deleted).
func (m *Manager) ReleaseModel(ctx context.Context, namespace string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.namespaces[namespace]; ok && st.usage.Models > 0 {
		st.usage.Models--
		m.persistUsageLocked(ctx, st)
	}
}

// ReserveBlob charges n blob bytes to a namespace, rejecting with
// ErrBlobQuota when the write would exceed the bound. The reservation is
// taken before the blob-first write begins and released if it fails, so
// concurrent uploads cannot jointly overshoot the quota.
func (m *Manager) ReserveBlob(ctx context.Context, namespace string, n int64) error {
	if n < 0 {
		return fmt.Errorf("%w: negative blob size", ErrBadSpec)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.namespaces[namespace]
	if !ok {
		return fmt.Errorf("%w: namespace %q", ErrNotFound, namespace)
	}
	if st.MaxBlobBytes > 0 && st.usage.BlobBytes+n > st.MaxBlobBytes {
		m.cQuotaDenied.Inc()
		return fmt.Errorf("%w: namespace %q at %d/%d blob bytes (+%d)", ErrBlobQuota,
			namespace, st.usage.BlobBytes, st.MaxBlobBytes, n)
	}
	st.usage.BlobBytes += n
	m.persistUsageLocked(ctx, st)
	return nil
}

// ReleaseBlob returns n reserved blob bytes after a failed upload.
func (m *Manager) ReleaseBlob(ctx context.Context, namespace string, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.namespaces[namespace]; ok {
		st.usage.BlobBytes -= n
		if st.usage.BlobBytes < 0 {
			st.usage.BlobBytes = 0
		}
		m.persistUsageLocked(ctx, st)
	}
}

// persistUsageLocked writes a namespace's usage row through the WAL.
// Usage is advisory accounting, so a persist failure is counted, not
// fatal: the in-memory counters stay authoritative for this process.
func (m *Manager) persistUsageLocked(ctx context.Context, st *nsState) {
	if err := m.store.Update(ctx, UsageTable, usageToRow(st.Name, st.usage)); err != nil {
		m.cUsageErrs.Inc()
	}
}

// --- audit plumbing ---

// recordAdmin writes a control-plane mutation to the audit trail.
func (m *Manager) recordAdmin(ctx context.Context, action, namespace, before, after string) {
	if m.aud == nil {
		return
	}
	_ = m.aud.Record(ctx, audit.Event{
		Action:     action,
		EntityType: audit.EntityNamespace,
		EntityID:   namespace,
		Before:     before,
		After:      after,
	})
}

// --- sorting (insertion sorts: the inputs are tiny) ---

func sortNamespaces(ns []Namespace) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j].Name < ns[j-1].Name; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

func sortTokens(ts []Token) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].Created.Before(ts[j-1].Created); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// --- schemas and row conversion ---

func namespacesSchema() relstore.Schema {
	return relstore.Schema{
		Table: NamespacesTable,
		Columns: []relstore.Column{
			{Name: "name", Kind: relstore.KindString},
			{Name: "max_models", Kind: relstore.KindInt},
			{Name: "max_blob_bytes", Kind: relstore.KindInt},
			{Name: "rate_per_sec", Kind: relstore.KindFloat},
			{Name: "burst", Kind: relstore.KindInt},
			{Name: "created", Kind: relstore.KindTime},
		},
		Key: "name",
	}
}

func tokensSchema() relstore.Schema {
	return relstore.Schema{
		Table: TokensTable,
		Columns: []relstore.Column{
			{Name: "id", Kind: relstore.KindString},
			{Name: "hash", Kind: relstore.KindString},
			{Name: "name", Kind: relstore.KindString},
			{Name: "namespace", Kind: relstore.KindString},
			{Name: "role", Kind: relstore.KindString},
			{Name: "created", Kind: relstore.KindTime},
			{Name: "revoked", Kind: relstore.KindBool},
		},
		Key:     "id",
		Indexes: []string{"namespace", "hash"},
	}
}

func usageSchema() relstore.Schema {
	return relstore.Schema{
		Table: UsageTable,
		Columns: []relstore.Column{
			{Name: "namespace", Kind: relstore.KindString},
			{Name: "models", Kind: relstore.KindInt},
			{Name: "blob_bytes", Kind: relstore.KindInt},
		},
		Key: "namespace",
	}
}

func namespaceToRow(ns Namespace) relstore.Row {
	return relstore.Row{
		"name":           relstore.String(ns.Name),
		"max_models":     relstore.Int(ns.MaxModels),
		"max_blob_bytes": relstore.Int(ns.MaxBlobBytes),
		"rate_per_sec":   relstore.Float(ns.RatePerSec),
		"burst":          relstore.Int(ns.Burst),
		"created":        relstore.Time(ns.Created),
	}
}

func rowToNamespace(r relstore.Row) Namespace {
	return Namespace{
		Name:         r["name"].Str,
		MaxModels:    r["max_models"].Int(),
		MaxBlobBytes: r["max_blob_bytes"].Int(),
		RatePerSec:   r["rate_per_sec"].Float(),
		Burst:        r["burst"].Int(),
		Created:      r["created"].Time(),
	}
}

func tokenToRow(t Token, hash string) relstore.Row {
	return relstore.Row{
		"id":        relstore.String(t.ID),
		"hash":      relstore.String(hash),
		"name":      relstore.String(t.Name),
		"namespace": relstore.String(t.Namespace),
		"role":      relstore.String(t.Role.String()),
		"created":   relstore.Time(t.Created),
		"revoked":   relstore.Bool(t.Revoked),
	}
}

func rowToToken(r relstore.Row) (Token, string) {
	role, err := ParseRole(r["role"].Str)
	if err != nil {
		role = RoleReader // unknown persisted role degrades to least privilege
	}
	return Token{
		ID:        r["id"].Str,
		Name:      r["name"].Str,
		Namespace: r["namespace"].Str,
		Role:      role,
		Created:   r["created"].Time(),
		Revoked:   r["revoked"].Bool(),
	}, r["hash"].Str
}

func usageToRow(namespace string, u Usage) relstore.Row {
	return relstore.Row{
		"namespace":  relstore.String(namespace),
		"models":     relstore.Int(u.Models),
		"blob_bytes": relstore.Int(u.BlobBytes),
	}
}
