package client

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gallery/internal/api"
)

func TestAPIErrorFormatting(t *testing.T) {
	e := &APIError{Status: 404, Msg: "core: not found: model x"}
	if got := e.Error(); !strings.Contains(got, "404") || !strings.Contains(got, "not found") {
		t.Fatalf("Error() = %q", got)
	}
}

func TestErrorBodyDecoding(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		w.Write([]byte(`{"error":"core: dependency cycle"}`))
	}))
	defer ts.Close()
	c := New(ts.URL, ts.Client())
	err := c.AddDependency("a", "b")
	ae, ok := err.(*APIError)
	if !ok {
		t.Fatalf("err = %T %v", err, err)
	}
	if ae.Status != 409 || ae.Msg != "core: dependency cycle" {
		t.Fatalf("APIError = %+v", ae)
	}
}

func TestNonJSONErrorBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "gateway exploded", http.StatusBadGateway)
	}))
	defer ts.Close()
	c := New(ts.URL, ts.Client())
	_, err := c.Stats()
	ae, ok := err.(*APIError)
	if !ok || ae.Status != 502 || !strings.Contains(ae.Msg, "gateway exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestConnectionRefused(t *testing.T) {
	c := New("http://127.0.0.1:1", nil) // port 1: nothing listens
	if _, err := c.Stats(); err == nil {
		t.Fatal("request to dead endpoint succeeded")
	}
}

func TestRequestBodiesEncoded(t *testing.T) {
	var gotPath, gotBody string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		buf := make([]byte, 4096)
		n, _ := r.Body.Read(buf)
		gotBody = string(buf[:n])
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte(`{"id":"00000000-0000-4000-8000-000000000000","base_version_id":"b","major":1,"created":"2019-06-01T00:00:00Z","deprecated":false}`))
	}))
	defer ts.Close()
	c := New(ts.URL, ts.Client())
	m, err := c.RegisterModel(api.RegisterModelRequest{BaseVersionID: "b", Project: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if gotPath != "/v1/models" {
		t.Fatalf("path = %q", gotPath)
	}
	if !strings.Contains(gotBody, `"base_version_id":"b"`) || !strings.Contains(gotBody, `"project":"p"`) {
		t.Fatalf("body = %q", gotBody)
	}
	if m.BaseVersionID != "b" {
		t.Fatalf("decoded model = %+v", m)
	}
}

// TestPredictSendsBinary: Predict sends the binary body under its media
// type, and a non-finite history never leaves the process.
func TestPredictSendsBinary(t *testing.T) {
	var calls int
	var gotType string
	var got api.PredictRequest
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		gotType = r.Header.Get("Content-Type")
		body, _ := io.ReadAll(r.Body)
		var err error
		if got, err = api.DecodePredictBinary(body, new([]float64), new([]bool)); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Write([]byte(`{"model_id":"m","instance_id":"i","version_id":"v","version":"1.0","value":2}`))
	}))
	defer ts.Close()
	c := New(ts.URL, ts.Client())
	req := api.PredictRequest{History: []float64{1, 3}, Time: time.Unix(1e9, 5).UTC(), PrevEvent: true}
	resp, err := c.Predict("m", req)
	if err != nil || resp.Value != 2 {
		t.Fatalf("Predict = %+v, %v", resp, err)
	}
	if gotType != api.PredictMediaType || len(got.History) != 2 || got.History[1] != 3 || !got.Time.Equal(req.Time) || !got.PrevEvent {
		t.Fatalf("server saw %q %+v", gotType, got)
	}
	if _, err := c.Predict("m", api.PredictRequest{History: []float64{1, math.NaN()}}); err == nil || calls != 1 {
		t.Fatalf("NaN history: err %v after %d calls, want an error and no second call", err, calls)
	}
}
