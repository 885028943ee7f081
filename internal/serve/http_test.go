package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"gallery/internal/api"
	"gallery/internal/forecast"
)

// postPredict serves one predict request in-process and returns the status
// and the raw response body.
func postPredict(h http.Handler, model string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/predict/"+model, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// TestPredictHandlerStatusAndText pins what a caller sees for each way a
// predict can go, once on a body the scanner takes and once on an
// equivalent one it hands to encoding/json (an unknown key forces that).
// Malformed bodies are encoding/json's alone: the scanner never answers
// for them.
func TestPredictHandlerStatusAndText(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "m1", 0, &forecast.Heuristic{K: 2})
	h := NewHandler(newTestGateway(t, src, Options{}))

	for _, tc := range []struct {
		name, model, body string
		fast              bool
		status            int
		want              string // the error text, or on 200 the value
	}{
		{"ok", "m1", `{"history":[1,3]}`, true, 200, "2"},
		{"ok", "m1", `{"history":[1,3],"x":0}`, false, 200, "2"},
		{"empty body", "m1", ``, false, 400, "decode request: EOF"},
		{"blank body", "m1", " \n", false, 400, "decode request: EOF"},
		{"non-object", "m1", `[1,3]`, false, 400, "decode request: json: cannot unmarshal array into Go value of type api.PredictRequest"},
		{"truncated", "m1", `{"history":[1,3`, false, 400, "decode request: unexpected EOF"},
		{"syntax error mid-array", "m1", `{"history":[1,3,x]}`, false, 400, "decode request: invalid character 'x' looking for beginning of value"},
		{"wrong element type", "m1", `{"history":[1,"3"]}`, false, 400, "decode request: json: cannot unmarshal string into Go struct field PredictRequest.history of type float64"},
		{"number out of range", "m1", `{"history":[1e999]}`, false, 400, "decode request: json: cannot unmarshal number 1e999 into Go struct field PredictRequest.history of type float64"},
		{"bad time", "m1", `{"history":[1],"time":"noon"}`, false, 400, `decode request: parsing time "noon" as "2006-01-02T15:04:05Z07:00": cannot parse "noon" as "2006"`},
		{"empty history", "m1", `{"history":[]}`, true, 400, "history must not be empty"},
		{"empty history", "m1", `{}`, true, 400, "history must not be empty"},
		{"empty history", "m1", `{"history":null}`, false, 400, "history must not be empty"},
		{"empty history", "m1", `null`, false, 400, "history must not be empty"},
		{"history_events mismatch", "m1", `{"history":[1,3],"history_events":[true]}`, true, 400, "history_events length 1 does not match history length 2"},
		{"history_events mismatch", "m1", `{"history":[1,3],"history_events":[]}`, true, 400, "history_events length 0 does not match history length 2"},
		{"history_events mismatch", "m1", `{"history":[1,3],"history_events":[true],"x":0}`, false, 400, "history_events length 1 does not match history length 2"},
		{"unknown model", "nope", `{"history":[1,3]}`, true, 502, "serve: production version of model nope: model nope not found"},
		{"unknown model", "nope", `{"history":[1,3],"x":0}`, false, 502, "serve: production version of model nope: model nope not found"},
	} {
		if _, fast := decodeBoth(t, []byte(tc.body)); fast != tc.fast {
			t.Errorf("%s %q: fast path = %v, want %v", tc.name, tc.body, fast, tc.fast)
		}
		status, raw := postPredict(h, tc.model, []byte(tc.body))
		got := ""
		if status == http.StatusOK {
			var resp api.PredictResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatalf("%s %q: %v", tc.name, tc.body, err)
			}
			got = fmt.Sprint(resp.Value)
		} else {
			var e api.Error
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("%s %q: %v", tc.name, tc.body, err)
			}
			got = e.Error
		}
		if status != tc.status || got != tc.want {
			t.Errorf("%s %q: %d %q, want %d %q", tc.name, tc.body, status, got, tc.status, tc.want)
		}
	}
}

// TestPredictBodyLimit walks the 4 MiB boundary: a body of exactly the
// limit is served, one byte more is a 413 — also when a complete request
// comes first and only padding crosses the line, which a streaming decode
// used to accept.
func TestPredictBodyLimit(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "m1", 0, &forecast.Heuristic{K: 1})
	h := NewHandler(newTestGateway(t, src, Options{}))

	padded := func(n int) []byte {
		return append([]byte(`{"history":[7]}`), bytes.Repeat([]byte{' '}, n-len(`{"history":[7]}`))...)
	}
	if status, raw := postPredict(h, "m1", padded(maxPredictBody)); status != http.StatusOK {
		t.Fatalf("body of exactly %d bytes: %d %s", maxPredictBody, status, raw)
	}
	huge := append(append([]byte(`{"history":[7`), bytes.Repeat([]byte(",7"), maxPredictBody/2)...), "]}"...)
	for name, body := range map[string][]byte{"padding past the limit": padded(maxPredictBody + 1), "history past the limit": huge} {
		status, raw := postPredict(h, "m1", body)
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if status != http.StatusRequestEntityTooLarge || e.Error != "decode request: http: request body too large" {
			t.Errorf("%s: %d %q, want 413", name, status, e.Error)
		}
	}
	// The 4 MiB buffers those requests grew were dropped, not pooled.
	for i := 0; i < 64; i++ {
		s := predictScratchPool.Get().(*predictScratch)
		if s.body.Cap() > maxPooledBody {
			t.Fatalf("pool handed back a %d-byte body buffer", s.body.Cap())
		}
	}
}
