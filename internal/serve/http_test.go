package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

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
// equivalent one it hands to encoding/json (an unknown key forces that;
// api's TestDecodeFastPathCoverage pins which side each body falls on).
// Malformed bodies are encoding/json's alone: the scanner never answers
// for them.
func TestPredictHandlerStatusAndText(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "m1", 0, &forecast.Heuristic{K: 2})
	h := NewHandler(newTestGateway(t, src, Options{}))

	for _, tc := range []struct {
		name, model, body string
		status            int
		want              string // the error text, or on 200 the value
	}{
		{"ok", "m1", `{"history":[1,3]}`, 200, "2"},
		{"ok", "m1", `{"history":[1,3],"x":0}`, 200, "2"},
		{"empty body", "m1", ``, 400, "decode request: EOF"},
		{"blank body", "m1", " \n", 400, "decode request: EOF"},
		{"non-object", "m1", `[1,3]`, 400, "decode request: json: cannot unmarshal array into Go value of type api.PredictRequest"},
		{"truncated", "m1", `{"history":[1,3`, 400, "decode request: unexpected EOF"},
		{"syntax error mid-array", "m1", `{"history":[1,3,x]}`, 400, "decode request: invalid character 'x' looking for beginning of value"},
		{"wrong element type", "m1", `{"history":[1,"3"]}`, 400, "decode request: json: cannot unmarshal string into Go struct field PredictRequest.history of type float64"},
		{"number out of range", "m1", `{"history":[1e999]}`, 400, "decode request: json: cannot unmarshal number 1e999 into Go struct field PredictRequest.history of type float64"},
		{"bad time", "m1", `{"history":[1],"time":"noon"}`, 400, `decode request: parsing time "noon" as "2006-01-02T15:04:05Z07:00": cannot parse "noon" as "2006"`},
		{"empty history", "m1", `{"history":[]}`, 400, "history must not be empty"},
		{"empty history", "m1", `{}`, 400, "history must not be empty"},
		{"empty history", "m1", `{"history":null}`, 400, "history must not be empty"},
		{"empty history", "m1", `null`, 400, "history must not be empty"},
		{"history_events mismatch", "m1", `{"history":[1,3],"history_events":[true]}`, 400, "history_events length 1 does not match history length 2"},
		{"history_events mismatch", "m1", `{"history":[1,3],"history_events":[]}`, 400, "history_events length 0 does not match history length 2"},
		{"history_events mismatch", "m1", `{"history":[1,3],"history_events":[true],"x":0}`, 400, "history_events length 1 does not match history length 2"},
		{"unknown model", "nope", `{"history":[1,3]}`, 502, "serve: production version of model nope: model nope not found"},
		{"unknown model", "nope", `{"history":[1,3],"x":0}`, 502, "serve: production version of model nope: model nope not found"},
	} {
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

// TestDecodePredictRequestZeroAlloc is the gate beside the encoder's: once
// the scratch is warm, reading and decoding a request allocates nothing.
func TestDecodePredictRequestZeroAlloc(t *testing.T) {
	start := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	hist := forecast.Generate(forecast.CityConfig{
		Name: "sf", Base: 100, GrowthPerWeek: 3, DailyAmp: 20, WeeklyAmp: 10, NoiseStd: 2, Seed: 7,
	}, start, time.Hour, 672).Values()
	for name, req := range map[string]api.PredictRequest{
		"h672":           {History: hist, Time: start},
		"history_events": {History: hist[:48], Time: start, Event: true, HistoryEvents: make([]bool, 48)},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		// One scratch held across runs, as a warm pool hands it back; the
		// pool itself drops a quarter of what it is given under -race.
		s := predictScratchPool.New().(*predictScratch)
		rd := bytes.NewReader(body)
		var points int
		allocs := testing.AllocsPerRun(200, func() {
			rd.Reset(body)
			req, err := s.decode(rd) // the encoding/json fallback allocates
			if err != nil {
				t.Fatal(err)
			}
			points = len(req.History)
		})
		if allocs != 0 || points == 0 {
			t.Errorf("%s: pooled decode of %d points allocates %.1f per op, want 0", name, points, allocs)
		}
	}
}

// FuzzDecodePredictRequest is the differential test over hostile bytes, run
// where the gateway decodes them: through a pooled scratch an earlier body
// has dirtied. The checked-in corpus under testdata/fuzz replays in plain
// `go test`. What the scanner accepts and what it hands to encoding/json
// must both come out as encoding/json's own decode: the same error, type
// and text, or the same request, floats by bit pattern and nil slices told
// from empty ones.
func FuzzDecodePredictRequest(f *testing.F) {
	s := predictScratchPool.New().(*predictScratch)
	f.Fuzz(func(t *testing.T, body []byte) {
		var want api.PredictRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		got, gotErr := s.decode(bytes.NewReader(body))
		if !bytes.Equal(s.body.Bytes(), body) {
			t.Fatalf("decode read %d bytes of %d", s.body.Len(), len(body))
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("body %q: err = %v, encoding/json says %v", body, gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() || fmt.Sprintf("%T", gotErr) != fmt.Sprintf("%T", wantErr) {
				t.Fatalf("body %q: err = %T %v, encoding/json says %T %v", body, gotErr, gotErr, wantErr, wantErr)
			}
			var gs, ws *json.SyntaxError
			if errors.As(wantErr, &ws) && (!errors.As(gotErr, &gs) || gs.Offset != ws.Offset) {
				t.Fatalf("body %q: syntax error offset differs from encoding/json's %d", body, ws.Offset)
			}
			return
		}
		if len(got.History) != len(want.History) || (got.History == nil) != (want.History == nil) ||
			(got.HistoryEvents == nil) != (want.HistoryEvents == nil) {
			t.Fatalf("body %q: got %+v, encoding/json says %+v", body, got, want)
		}
		for i := range want.History {
			if math.Float64bits(got.History[i]) != math.Float64bits(want.History[i]) {
				t.Fatalf("body %q: history[%d] = %v, encoding/json says %v", body, i, got.History[i], want.History[i])
			}
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) || got.Time.Location().String() != want.Time.Location().String() {
			t.Fatalf("body %q: got %s, encoding/json says %s", body, gb, wb)
		}
	})
}

// postBinary is postPredict with a binary body, sent under contentType.
func postBinary(h http.Handler, model, contentType string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/predict/"+model, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestPredictBinaryBody: the Content-Type alone picks the decoder. A
// binary body answers as its JSON twin does, a refused one is a 400 with
// the codec's text and the size limit is the same 413; the same bytes
// under another type, or none, are JSON and fail as JSON.
func TestPredictBinaryBody(t *testing.T) {
	src := newFakeSource()
	src.promote(t, "m1", 0, &forecast.Heuristic{K: 2})
	h := NewHandler(newTestGateway(t, src, Options{}))
	bin := func(req api.PredictRequest) []byte {
		b, err := api.AppendPredictBinary(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ok := bin(api.PredictRequest{History: []float64{1, 3}})
	for _, tc := range []struct {
		name, model, contentType string
		body                     []byte
		status                   int
		want                     string // the error text, or on 200 the value
	}{
		{"binary", "m1", api.PredictMediaType, ok, 200, "2"},
		{"binary with parameters", "m1", "Application/Vnd.Gallery.Predict; v=1", ok, 200, "2"},
		{"json twin", "m1", "", []byte(`{"history":[1,3]}`), 200, "2"},
		{"json twin typed", "m1", "application/json", []byte(`{"history":[1,3]}`), 200, "2"},
		{"binary as json", "m1", "application/json", ok, 400, "decode request: invalid character 'G' looking for beginning of value"},
		{"binary untyped", "m1", "", ok, 400, "decode request: invalid character 'G' looking for beginning of value"},
		{"json as binary", "m1", api.PredictMediaType, []byte(`{"history":[1,3],"time":"2019-06-03T00:00:00Z"}`), 400, "decode request: predict body: bad magic or version"},
		{"empty", "m1", api.PredictMediaType, nil, 400, "decode request: predict body: shorter than its header"},
		{"trailing", "m1", api.PredictMediaType, append(bytes.Clone(ok), 0), 400, "decode request: predict body: trailing bytes"},
		{"empty history", "m1", api.PredictMediaType, bin(api.PredictRequest{History: []float64{}}), 400, "history must not be empty"},
		{"events", "m1", api.PredictMediaType, bin(api.PredictRequest{History: []float64{1, 3}, HistoryEvents: []bool{true, false}}), 200, "2"},
		{"unknown model", "nope", api.PredictMediaType, ok, 502, "serve: production version of model nope: model nope not found"},
		{"over the limit", "m1", api.PredictMediaType, append(bytes.Clone(ok), make([]byte, maxPredictBody)...), 413, "decode request: http: request body too large"},
	} {
		status, raw := postBinary(h, tc.model, tc.contentType, tc.body)
		got := ""
		if status == http.StatusOK {
			var resp api.PredictResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got = fmt.Sprint(resp.Value)
		} else {
			var e api.Error
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got = e.Error
		}
		if status != tc.status || got != tc.want {
			t.Errorf("%s: %d %q, want %d %q", tc.name, status, got, tc.status, tc.want)
		}
	}
}

// readCorpus returns the bodies of a fuzz target's checked-in corpus.
func readCorpus(t *testing.T, target string) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		if !ok || len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a one-[]byte corpus file", e.Name())
		}
		body, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out[e.Name()] = []byte(body)
	}
	return out
}

// TestBinaryMatchesJSONCorpus is the differential test between the two
// bodies: every request in FuzzDecodePredictRequest's corpus that the JSON
// path accepts, re-encoded as binary, decodes through the same pooled
// scratch to the same request. The JSON path accepts no non-finite
// value, so every accepted request is encodable.
func TestBinaryMatchesJSONCorpus(t *testing.T) {
	s := predictScratchPool.New().(*predictScratch)
	accepted := 0
	for name, body := range readCorpus(t, "FuzzDecodePredictRequest") {
		want, err := s.decode(bytes.NewReader(body))
		if err != nil {
			continue
		}
		// want borrows the scratch the binary decode is about to reuse.
		want.History = append([]float64(nil), want.History...)
		if want.HistoryEvents != nil {
			want.HistoryEvents = append([]bool{}, want.HistoryEvents...)
		}
		accepted++
		bin, err := api.AppendPredictBinary(nil, &want)
		if want.HistoryEvents != nil && len(want.HistoryEvents) != len(want.History) {
			// The gateway refuses this request after decoding it; the
			// binary body cannot even spell it.
			if err == nil {
				t.Errorf("%s: %d events for %d points encoded", name, len(want.HistoryEvents), len(want.History))
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: encode %+v: %v", name, want, err)
		}
		got, err := s.decodeBinary(bytes.NewReader(bin))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if want.History == nil {
			want.History = []float64{} // the binary body has no null history
		}
		if len(got.History) != len(want.History) || got.Event != want.Event || got.PrevEvent != want.PrevEvent ||
			(got.HistoryEvents == nil) != (want.HistoryEvents == nil) || len(got.HistoryEvents) != len(want.HistoryEvents) {
			t.Fatalf("%s: binary %+v, json %+v", name, got, want)
		}
		for i := range want.History {
			if math.Float64bits(got.History[i]) != math.Float64bits(want.History[i]) {
				t.Fatalf("%s: history[%d] = %v, json %v", name, i, got.History[i], want.History[i])
			}
		}
		for i := range want.HistoryEvents {
			if got.HistoryEvents[i] != want.HistoryEvents[i] {
				t.Fatalf("%s: history_events[%d] = %v, json %v", name, i, got.HistoryEvents[i], want.HistoryEvents[i])
			}
		}
		_, gotOff := got.Time.Zone()
		_, wantOff := want.Time.Zone()
		if !got.Time.Equal(want.Time) || gotOff != wantOff {
			t.Fatalf("%s: time %v, json %v", name, got.Time, want.Time)
		}
	}
	if accepted < 50 {
		t.Fatalf("only %d corpus bodies accepted; the corpus lost its valid requests", accepted)
	}
}

// TestDecodePredictBinaryZeroAlloc is TestDecodePredictRequestZeroAlloc
// for the binary body: once the scratch is warm, reading and decoding a
// request allocates nothing.
func TestDecodePredictBinaryZeroAlloc(t *testing.T) {
	start := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	hist := forecast.Generate(forecast.CityConfig{
		Name: "sf", Base: 100, GrowthPerWeek: 3, DailyAmp: 20, WeeklyAmp: 10, NoiseStd: 2, Seed: 7,
	}, start, time.Hour, 672).Values()
	for name, req := range map[string]api.PredictRequest{
		"h672":           {History: hist, Time: start},
		"history_events": {History: hist[:48], Time: start, Event: true, HistoryEvents: make([]bool, 48)},
	} {
		body, err := api.AppendPredictBinary(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		// One scratch held across runs, as in the JSON gate.
		s := predictScratchPool.New().(*predictScratch)
		rd := bytes.NewReader(body)
		var points int
		allocs := testing.AllocsPerRun(200, func() {
			rd.Reset(body)
			req, err := s.decodeBinary(rd)
			if err != nil {
				t.Fatal(err)
			}
			points = len(req.History)
		})
		if allocs != 0 || points != len(req.History) {
			t.Errorf("%s: pooled binary decode of %d points allocates %.1f per op, want 0", name, points, allocs)
		}
	}
}
