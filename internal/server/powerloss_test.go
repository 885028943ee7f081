package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"gallery/internal/api"
	"gallery/internal/audit"
	"gallery/internal/blobstore"
	"gallery/internal/client"
	"gallery/internal/core"
	"gallery/internal/obs"
	"gallery/internal/relstore"
	"gallery/internal/rules"
	"gallery/internal/tenant"
	"gallery/internal/uuid"
	"gallery/internal/wal"
)

// The power-loss test: the case SIGKILL cannot show. A killed process
// leaves its page cache behind, so everything written reaches the disk; a
// power cut keeps only what was fsynced. wal.Log.Durable is that boundary,
// so cutting meta.wal there is exactly what a power cut at that moment
// leaves. The claim under test is the server's contract with -fsync: a 2xx
// on a mutating request means its records are below the watermark.

// ack is one 2xx a writer received, with the durable watermark read right
// after: the records behind the ack end at or below it.
type ack struct {
	durable  int64
	instance string             // uploaded, or the subject of the metrics / promotion
	name     string             // upload only: the instance name, unique per attempt
	metrics  map[string]float64 // metric set only
	promoted bool               // promotion only
}

// plWriter is one tenant's closed loop over its own model.
type plWriter struct {
	ns      string
	model   string
	acks    []ack
	sizeOf  map[string]int64 // instance name -> blob bytes, recorded before the request is sent
	pointer []ack            // acks that moved the production pointer, in order
}

const plIters = 12

func (w *plWriter) run(t *testing.T, c *client.Client, meta *relstore.Store) {
	var uploaded []string
	for i := 0; i < plIters; i++ {
		name := fmt.Sprintf("%s-i%02d", w.ns, i)
		blob := make([]byte, 100+37*i) // distinct sizes, so byte accounting cannot balance by accident
		w.sizeOf[name] = int64(len(blob))
		in, err := c.UploadInstance(api.UploadInstanceRequest{ModelID: w.model, Name: name, City: "sf", Framework: "test", Blob: blob})
		if err != nil {
			t.Errorf("%s upload %d: %v", w.ns, i, err)
			return
		}
		a := ack{durable: meta.LogDurable(), instance: in.ID, name: name}
		w.acks = append(w.acks, a)
		w.pointer = append(w.pointer, a) // an upload is born promoted
		uploaded = append(uploaded, in.ID)

		vals := map[string]float64{"mape": float64(i), "r2": 0.9, "bias": -0.1}
		if err := c.InsertMetrics(in.ID, "validation", vals); err != nil {
			t.Errorf("%s metrics %d: %v", w.ns, i, err)
			return
		}
		w.acks = append(w.acks, ack{durable: meta.LogDurable(), instance: in.ID, metrics: vals})

		if i%3 == 2 { // roll back to the previous instance
			prev := uploaded[i-1]
			if err := c.PromoteInstance(prev); err != nil {
				t.Errorf("%s promote %d: %v", w.ns, i, err)
				return
			}
			a := ack{durable: meta.LogDurable(), instance: prev, promoted: true}
			w.acks = append(w.acks, a)
			w.pointer = append(w.pointer, a)
		}
	}
}

func TestPowerLossKeepsEveryAcknowledgedWrite(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "meta.wal")
	meta, err := relstore.Open(walPath, wal.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer meta.Close()
	o := obs.NewRegistry()
	meta.Instrument(o)
	reg, err := core.New(meta, blobstore.NewMemory(blobstore.Options{}), core.Options{Obs: o, AuditKeep: -1})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := tenant.Open(meta, tenant.Options{Obs: o, Audit: reg.Audit()})
	if err != nil {
		t.Fatal(err)
	}
	repo := rules.NewRepo(nil)
	srv := NewWith(reg, repo, rules.NewEngine(reg, repo, nil), Options{Obs: o, Tenants: tm})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	dial := func(secret string) *client.Client {
		return client.NewWith(ts.URL, client.Options{HTTP: ts.Client(), Token: secret, Retries: 0})
	}
	rootSecret, _, err := tm.MintToken(context.Background(), tenant.DefaultNamespace, "root", tenant.RoleOperator)
	if err != nil {
		t.Fatal(err)
	}
	admin := dial(rootSecret)

	// Set-up goes through the API too: namespaces, tokens and models are
	// acknowledged writes like any other.
	const nWriters = 4
	writers := make([]*plWriter, nWriters)
	clients := make([]*client.Client, nWriters)
	for i := range writers {
		ns := fmt.Sprintf("team%d", i)
		if _, err := admin.CreateNamespace(api.CreateNamespaceRequest{Name: ns}); err != nil {
			t.Fatal(err)
		}
		tok, err := admin.MintToken(ns, api.MintTokenRequest{Name: "trainer", Role: tenant.RolePublisher.String()})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = dial(tok.Secret)
		m, err := clients[i].RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv-" + ns, Project: "p", Name: ns + "/demand"})
		if err != nil {
			t.Fatal(err)
		}
		writers[i] = &plWriter{ns: ns, model: m.ID, sizeOf: make(map[string]int64)}
	}
	setup := meta.LogDurable()
	if setup != meta.LogSize() {
		t.Fatalf("set-up acknowledged with durable %d behind size %d", setup, meta.LogSize())
	}

	// Writer 0 runs alone first: with nobody else committing, the watermark
	// read after an ack is the one its own commit left, so an ack that went
	// out before its commit would be caught by the cut at that watermark.
	writers[0].run(t, clients[0], meta)
	solo := len(writers[0].acks)
	var wg sync.WaitGroup
	for i := 1; i < nWriters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			writers[i].run(t, clients[i], meta)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	srv.Flush()
	final := meta.LogDurable()
	if final != meta.LogSize() {
		t.Fatalf("quiesced with durable %d behind size %d", final, meta.LogSize())
	}
	records := o.Counter("relstore_wal_records_total").Value()
	commits := o.Counter("relstore_wal_commits_total").Value()
	if commits == 0 || records <= commits {
		t.Fatalf("records %d commits %d: the fsync is still per record", records, commits)
	}
	t.Logf("%d records / %d commits = %.2f per commit", records, commits, float64(records)/float64(commits))

	image, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(image)) < final {
		t.Fatalf("wal file is %d bytes, durable watermark %d", len(image), final)
	}

	// Cut at the end, after set-up, at every watermark of the solo phase
	// (where the watermark is exact) and at a sample of the concurrent ones.
	cuts := map[int64]bool{final: true, setup: true}
	for _, a := range writers[0].acks[:solo] {
		cuts[a.durable] = true
	}
	for _, w := range writers[1:] {
		for i := 0; i < len(w.acks); i += 5 {
			cuts[w.acks[i].durable] = true
		}
	}
	sorted := make([]int64, 0, len(cuts))
	for c := range cuts {
		sorted = append(sorted, c)
	}
	slices.Sort(sorted)
	for _, cut := range sorted {
		checkPowerLossImage(t, dir, image[:cut], writers, cut == final)
	}
}

// checkPowerLossImage recovers a registry from a WAL prefix and checks
// everything acknowledged at or below its length, plus the cross-table
// invariants that must hold at any commit boundary.
func checkPowerLossImage(t *testing.T, dir string, image []byte, writers []*plWriter, quiesced bool) {
	t.Helper()
	cut := int64(len(image))
	path := filepath.Join(dir, fmt.Sprintf("cut-%d.wal", cut))
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	meta, err := relstore.Open(path, wal.Options{})
	if err != nil {
		t.Fatalf("cut %d: recover: %v", cut, err)
	}
	defer meta.Close()
	if meta.LogSize() != cut {
		t.Fatalf("cut %d: recovery kept %d bytes: a watermark must be a record boundary", cut, meta.LogSize())
	}
	reg, err := core.New(meta, blobstore.NewMemory(blobstore.Options{}), core.Options{Obs: obs.NewRegistry(), AuditKeep: -1})
	if err != nil {
		t.Fatalf("cut %d: %v", cut, err)
	}
	tm, err := tenant.Open(meta, tenant.Options{Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("cut %d: %v", cut, err)
	}

	for _, w := range writers {
		// Every acknowledged write at or below the cut is there.
		lastPointer := -1
		for _, a := range w.acks {
			if a.durable > cut {
				break
			}
			id := uuid.MustParse(a.instance)
			switch {
			case a.metrics != nil:
				got, err := reg.LatestMetrics(id, core.Scope("validation"))
				if err != nil || len(got) != len(a.metrics) {
					t.Errorf("cut %d %s: acknowledged metric set of %s recovered as %v (%v)", cut, w.ns, a.instance, got, err)
				}
			case a.promoted:
			default:
				if in, err := reg.GetInstance(context.Background(), id); err != nil || in.Name != a.name {
					t.Errorf("cut %d %s: acknowledged instance %s (%s) lost: %v", cut, w.ns, a.instance, a.name, err)
				}
			}
		}
		for i, a := range w.pointer {
			if a.durable <= cut {
				lastPointer = i
			}
		}
		// The production pointer is where the last acknowledged move left
		// it, or where an in-flight later one did.
		modelID := uuid.MustParse(w.model)
		v, err := reg.ProductionVersion(context.Background(), modelID)
		if err != nil {
			t.Errorf("cut %d %s: production version: %v", cut, w.ns, err)
			continue
		}
		if lastPointer >= 0 {
			ok := false
			for _, a := range w.pointer[lastPointer:] {
				ok = ok || v.InstanceID.String() == a.instance
			}
			if !ok {
				t.Errorf("cut %d %s: production instance %s, want the acknowledged %s or a later move",
					cut, w.ns, v.InstanceID, w.pointer[lastPointer].instance)
			}
		}

		// Tenant usage against live rows. The quota is reserved before the
		// upload it pays for, so a cut may hold one reservation whose upload
		// was still in flight — never the reverse, and never once quiesced.
		live, err := reg.SearchInstances(core.InstanceFilter{ModelID: modelID, IncludeDeprecated: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		var liveBytes int64
		for _, in := range live {
			liveBytes += w.sizeOf[in.Name]
		}
		next := w.sizeOf[fmt.Sprintf("%s-i%02d", w.ns, len(live))]
		usage, err := tm.GetUsage(w.ns)
		if err != nil {
			t.Errorf("cut %d %s: usage: %v", cut, w.ns, err)
			continue
		}
		if usage.Models != 1 {
			t.Errorf("cut %d %s: usage counts %d models, 1 is live", cut, w.ns, usage.Models)
		}
		if usage.BlobBytes != liveBytes && (quiesced || usage.BlobBytes != liveBytes+next) {
			t.Errorf("cut %d %s: usage %d bytes, live rows hold %d (next upload %d, quiesced %v)",
				cut, w.ns, usage.BlobBytes, liveBytes, next, quiesced)
		}
	}

	// Audit seq is gap-free: 1..N with nothing missing in the middle.
	evs, err := reg.Audit().Events(audit.Query{})
	if err != nil {
		t.Fatalf("cut %d: %v", cut, err)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("cut %d: audit seq %d at position %d: gap", cut, ev.Seq, i+1)
		}
	}
}
