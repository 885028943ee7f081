package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gallery/internal/api"
)

// rateLimitedHandler answers 429 with a Retry-After for the first failN
// requests, then succeeds.
func rateLimitedHandler(failN int, retryAfter string, v string) (http.Handler, *atomic.Int64) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(failN) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			http.Error(w, `{"error":"rate limited"}`, http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(v))
	})
	return h, &calls
}

// TestRetryAfterHonored: on a 429 the client waits at least the server's
// Retry-After hint (jittered upward) instead of its much smaller
// exponential backoff.
func TestRetryAfterHonored(t *testing.T) {
	h, calls := rateLimitedHandler(1, "2", `{"models":1,"instances":0,"metrics":0}`)
	ts := httptest.NewServer(h)
	defer ts.Close()

	var slept []time.Duration
	c := NewWith(ts.URL, Options{
		Retries: 2, Sleep: noSleep(&slept),
		RetryBase: 10 * time.Millisecond, RetryMax: 10 * time.Second,
	})
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats after transient 429: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2", got)
	}
	if len(slept) != 1 {
		t.Fatalf("slept %d times, want 1", len(slept))
	}
	// hint=2s, jitter in [0, hint/4]: the sleep lands in [2s, 2.5s] — far
	// above the 10ms exponential base, and under RetryMax.
	if slept[0] < 2*time.Second || slept[0] > 2500*time.Millisecond {
		t.Fatalf("slept %v, want within [2s, 2.5s] per Retry-After hint", slept[0])
	}
}

// TestRetryAfterCapped: the honored hint still respects RetryMax.
func TestRetryAfterCapped(t *testing.T) {
	h, _ := rateLimitedHandler(1, "3600", `{"models":1,"instances":0,"metrics":0}`)
	ts := httptest.NewServer(h)
	defer ts.Close()

	var slept []time.Duration
	c := NewWith(ts.URL, Options{
		Retries: 2, Sleep: noSleep(&slept),
		RetryBase: 10 * time.Millisecond, RetryMax: 500 * time.Millisecond,
	})
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if len(slept) != 1 || slept[0] > 500*time.Millisecond {
		t.Fatalf("slept %v, want exactly one sleep capped at RetryMax=500ms", slept)
	}
}

// TestRetry429POST: a 429 is rejected before the handler runs, so even
// mutations are safe to resend.
func TestRetry429POST(t *testing.T) {
	h, calls := rateLimitedHandler(1, "1", `{"id":"m1"}`)
	ts := httptest.NewServer(h)
	defer ts.Close()

	var slept []time.Duration
	c := NewWith(ts.URL, Options{Retries: 2, Sleep: noSleep(&slept)})
	if _, err := c.RegisterModel(api.RegisterModelRequest{BaseVersionID: "bv"}); err != nil {
		t.Fatalf("register after transient 429: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (POST retried after 429)", got)
	}
}

// TestRetry429Exhausted: the final error surfaces the RetryAfter hint so
// callers can schedule their own backoff.
func TestRetry429Exhausted(t *testing.T) {
	h, _ := rateLimitedHandler(100, "7", `{}`)
	ts := httptest.NewServer(h)
	defer ts.Close()

	var slept []time.Duration
	c := NewWith(ts.URL, Options{Retries: 1, Sleep: noSleep(&slept)})
	_, err := c.Stats()
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want APIError 429", err)
	}
	if ae.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %v, want 7s", ae.RetryAfter)
	}
}

// TestTelemetryCallsNeverRetry: the four calls the gateway's telemetry
// shipper makes take one attempt and never sleep, even on a 429 with a
// Retry-After hint and a retry budget — their caller is one worker with
// every other channel queued behind it.
func TestTelemetryCallsNeverRetry(t *testing.T) {
	calls := map[string]func(*Client) error{
		"audit":    func(c *Client) error { return c.ReportAuditEvent(context.Background(), api.AuditEvent{}) },
		"traces":   func(c *Client) error { return c.ExportSpans(context.Background(), nil) },
		"profiles": func(c *Client) error { return c.ExportProfiles(context.Background(), "p", nil) },
		"health": func(c *Client) error {
			return c.ReportHealthObservations(context.Background(), api.HealthObservationsRequest{})
		},
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			h, hits := rateLimitedHandler(10, "2", `{}`)
			ts := httptest.NewServer(h)
			defer ts.Close()
			var slept []time.Duration
			c := NewWith(ts.URL, Options{Retries: 3, Sleep: noSleep(&slept)})
			var apiErr *APIError
			if err := call(c); !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
				t.Fatalf("err = %v, want the 429", err)
			}
			if hits.Load() != 1 || len(slept) != 0 {
				t.Fatalf("peer saw %d attempts, client slept %v; want 1 attempt, no sleep", hits.Load(), slept)
			}
		})
	}
}

// TestDeadlinePassedCancellationNot: a context deadline bounds the round
// trip; cancelling the same context does not abort it (a shared gateway
// load must survive the one waiter that gave up).
func TestDeadlinePassedCancellationNot(t *testing.T) {
	// stuck serves one request that answers only once release is closed.
	stuck := func(t *testing.T) (c *Client, entered, release chan struct{}) {
		entered, release = make(chan struct{}), make(chan struct{})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			<-release
			w.Write([]byte(`{}`))
		}))
		t.Cleanup(ts.Close)
		return NewWith(ts.URL, Options{}), entered, release
	}

	t.Run("deadline", func(t *testing.T) {
		c, _, release := stuck(t)
		defer close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if err := c.ExportSpans(ctx, nil); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want deadline exceeded", err)
		}
	})
	for name, mk := range map[string]func() (context.Context, context.CancelFunc){
		"cancel": func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) },
		"cancel-with-deadline": func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), time.Minute)
		},
	} {
		t.Run(name, func(t *testing.T) {
			c, entered, release := stuck(t)
			ctx, cancel := mk()
			done := make(chan error, 1)
			go func() { done <- c.ExportSpans(ctx, nil) }()
			<-entered
			cancel()
			select {
			case err := <-done:
				t.Fatalf("cancel aborted the round trip: %v", err)
			case <-time.After(100 * time.Millisecond):
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatalf("after release: %v", err)
			}
		})
	}
}
