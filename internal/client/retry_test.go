package client

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gallery/internal/api"
)

// flakyHandler fails the first failN requests with status, then serves v.
func flakyHandler(failN int, status int, v string) (http.Handler, *atomic.Int64) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(failN) {
			http.Error(w, `{"error":"transient"}`, status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(v))
	})
	return h, &calls
}

// noSleep records requested backoffs without waiting them out.
func noSleep(dst *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *dst = append(*dst, d) }
}

func TestRetryGETOn5xx(t *testing.T) {
	h, calls := flakyHandler(2, http.StatusInternalServerError, `{"models":1,"instances":2,"metrics":3}`)
	ts := httptest.NewServer(h)
	defer ts.Close()

	var slept []time.Duration
	c := NewWith(ts.URL, Options{Retries: 3, Sleep: noSleep(&slept)})
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats after transient 500s: %v", err)
	}
	if st.Models != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 failures + success)", got)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	h, calls := flakyHandler(100, http.StatusBadGateway, `{}`)
	ts := httptest.NewServer(h)
	defer ts.Close()

	var slept []time.Duration
	c := NewWith(ts.URL, Options{Retries: 2, Sleep: noSleep(&slept)})
	_, err := c.Stats()
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusBadGateway {
		t.Fatalf("err = %v, want APIError 502", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (initial + 2 retries)", got)
	}
}

func TestNoRetryPOSTOn5xx(t *testing.T) {
	// A POST reaching the server must never be resent: it could have
	// been applied before the 5xx.
	h, calls := flakyHandler(100, http.StatusInternalServerError, `{}`)
	ts := httptest.NewServer(h)
	defer ts.Close()

	var slept []time.Duration
	c := NewWith(ts.URL, Options{Retries: 3, Sleep: noSleep(&slept)})
	_, err := c.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv"})
	if err == nil {
		t.Fatal("want error")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d POSTs, want exactly 1", got)
	}
	if len(slept) != 0 {
		t.Fatalf("slept %v before a non-retryable failure", slept)
	}
}

func TestNoRetryOn4xx(t *testing.T) {
	h, calls := flakyHandler(100, http.StatusNotFound, `{}`)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := NewWith(ts.URL, Options{Retries: 3, Sleep: func(time.Duration) {}})
	_, err := c.Stats()
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want APIError 404", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (4xx is deterministic)", got)
	}
}

func TestRetryDialErrorForPOST(t *testing.T) {
	// Nothing listens on the target, so the dial itself fails — the
	// request was never sent, making retry safe for any method. Grab a
	// port that is actually closed by opening and closing a listener.
	ts := httptest.NewServer(http.NotFoundHandler())
	dead := ts.URL
	ts.Close()

	var slept []time.Duration
	c := NewWith(dead, Options{Retries: 2, Sleep: noSleep(&slept)})
	_, err := c.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv"})
	if err == nil {
		t.Fatal("want error against a dead server")
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2 (dial errors retry even for POST)", len(slept))
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	for attempt, want := range []time.Duration{
		50 * time.Millisecond, // 1st retry: base
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second, // capped
		2 * time.Second,
	} {
		for i := 0; i < 50; i++ { // jitter is random; probe repeatedly
			d := retryDelay(attempt)
			if d < want/2 || d > want {
				t.Fatalf("retryDelay(%d) = %v, want in [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
}
