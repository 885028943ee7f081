package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"gallery/internal/api"
	"gallery/internal/forecast"
)

// benchBody is the body the socket benchmark sends: points hourly values of
// a generated city and the time of the next one.
func benchBody(t testing.TB, points int) []byte {
	t.Helper()
	start := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	s := forecast.Generate(forecast.CityConfig{
		Name: "sf", Base: 100, GrowthPerWeek: 3, DailyAmp: 20, WeeklyAmp: 10, NoiseStd: 2, Seed: 7,
	}, start, time.Hour, points)
	b, err := json.Marshal(api.PredictRequest{History: s.Values(), Time: start.Add(time.Duration(points) * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeBoth decodes body with encoding/json (the reference) and with a
// pooled scratch — one earlier requests have dirtied — and fails t on any
// difference: error presence, type, text and syntax-error offset, and on
// success every field, floats by bit pattern, the time with its location,
// nil slices told from empty ones. It reports whether the fast path took
// the body. The result borrows from the pool only until the next call.
func decodeBoth(t testing.TB, body []byte) (got api.PredictRequest, fast bool) {
	t.Helper()
	var want api.PredictRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)

	s := predictScratchPool.Get().(*predictScratch)
	defer s.release()
	got, gotErr := s.decode(bytes.NewReader(body))
	if !bytes.Equal(s.body.Bytes(), body) {
		t.Fatalf("decode read %d bytes of %d", s.body.Len(), len(body))
	}
	_, fast = s.scan()

	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: err = %v, encoding/json says %v", body, gotErr, wantErr)
	}
	if wantErr != nil {
		if fast {
			t.Fatalf("body %q: fast path took what encoding/json refuses: %v", body, wantErr)
		}
		if gotErr.Error() != wantErr.Error() || reflect.TypeOf(gotErr) != reflect.TypeOf(wantErr) {
			t.Fatalf("body %q: err = %T %v, encoding/json says %T %v", body, gotErr, gotErr, wantErr, wantErr)
		}
		var gs, ws *json.SyntaxError
		if errors.As(wantErr, &ws) && (!errors.As(gotErr, &gs) || gs.Offset != ws.Offset) {
			t.Fatalf("body %q: syntax error offset differs from encoding/json's %d", body, ws.Offset)
		}
		return got, fast
	}
	if (got.History == nil) != (want.History == nil) || len(got.History) != len(want.History) {
		t.Fatalf("body %q: history %v, encoding/json says %v", body, got.History, want.History)
	}
	for i := range want.History {
		if math.Float64bits(got.History[i]) != math.Float64bits(want.History[i]) {
			t.Fatalf("body %q: history[%d] = %v, encoding/json says %v", body, i, got.History[i], want.History[i])
		}
	}
	if !got.Time.Equal(want.Time) || got.Time.Location().String() != want.Time.Location().String() ||
		got.Time.Format(time.RFC3339Nano) != want.Time.Format(time.RFC3339Nano) {
		t.Fatalf("body %q: time %v, encoding/json says %v", body, got.Time, want.Time)
	}
	if got.Event != want.Event || got.PrevEvent != want.PrevEvent {
		t.Fatalf("body %q: event flags %v/%v, encoding/json says %v/%v", body, got.Event, got.PrevEvent, want.Event, want.PrevEvent)
	}
	if (got.HistoryEvents == nil) != (want.HistoryEvents == nil) || !reflect.DeepEqual(append([]bool{}, got.HistoryEvents...), append([]bool{}, want.HistoryEvents...)) {
		t.Fatalf("body %q: history_events %v, encoding/json says %v", body, got.HistoryEvents, want.HistoryEvents)
	}
	return got, fast
}

// FuzzDecodePredictRequest is the differential test over hostile bytes; the
// checked-in corpus under testdata/fuzz replays in plain `go test`.
func FuzzDecodePredictRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		decodeBoth(t, body)
	})
}

// TestDecodeFastPathCoverage pins which side of the line a body falls on:
// a scanner that bailed on everything would pass every differential test.
func TestDecodeFastPathCoverage(t *testing.T) {
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{string(benchBody(t, 48)), true},
		{string(benchBody(t, 672)), true},
		{`{}`, true},
		{`{"history":[]}`, true},
		{` { "history" : [ -0 , 1.5e+3 , 2E-2 ] , "time" : "2019-06-03T00:00:00+02:00" , "event" : true , "prev_event" : false , "history_events" : [ true , false , true ] } `, true},
		{`{"history":[1]}trailing`, true},
		{`{"history":[1E-400]}`, true}, // underflows to 0 without an error
		{`{"history":null}`, false},
		{`{"History":[1]}`, false},
		{`{"history":[1],"history":[2]}`, false},
		{`{"history":[1],"extra":1}`, false},
		{`{"history":[1e999]}`, false},
		{`{"history":[01]}`, false},
		{`{"h\u0069story":[1]}`, false},
		{`{"history":[1],"time":"2019-06-03T00:00:00\u005a"}`, false},
		{`{"history":[1],"time":"yesterday"}`, false},
		{`{"history":[1,`, false},
		{`[1]`, false},
		{``, false},
	} {
		if _, fast := decodeBoth(t, []byte(tc.body)); fast != tc.fast {
			t.Errorf("body %.60q: fast path = %v, want %v", tc.body, fast, tc.fast)
		}
	}
}

func TestDecodePredictRequestQuick(t *testing.T) {
	zones := []*time.Location{time.UTC, time.FixedZone("", 2*3600), time.FixedZone("", -(5*3600 + 30*60))}
	err := quick.Check(func(seed int64, hist []float64, events []bool, event, prev bool, sec int32, nsec uint32, omit uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		for i, v := range hist {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				hist[i] = 0 // encoding/json cannot marshal these
			}
		}
		tm := time.Unix(int64(sec), int64(nsec%1e9)).In(zones[rng.Intn(len(zones))])
		// Marshalling a map gives sorted keys; build the object by hand so
		// the field order varies too.
		fields := []struct {
			key string
			val any
		}{{"history", hist}, {"time", tm}, {"event", event}, {"prev_event", prev}, {"history_events", events}}
		rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
		body := []byte{'{'}
		for i, f := range fields {
			if omit&(1<<i) != 0 {
				continue
			}
			v, err := json.Marshal(f.val)
			if err != nil {
				t.Fatal(err)
			}
			if len(body) > 1 {
				body = append(body, ',')
			}
			body = append(append(append(body, '"'), f.key...), '"', ':')
			body = append(body, v...)
		}
		body = append(body, '}')
		_, fast := decodeBoth(t, body)
		return fast
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDecodePredictRequestZeroAlloc is the gate beside the encoder's: once
// the scratch is warm, decoding a request allocates nothing.
func TestDecodePredictRequestZeroAlloc(t *testing.T) {
	withEvents, err := json.Marshal(api.PredictRequest{
		History: make([]float64, 48), Time: time.Date(2019, 6, 3, 0, 0, 0, 0, time.UTC),
		Event: true, HistoryEvents: make([]bool, 48),
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"h672": benchBody(t, 672), "history_events": withEvents} {
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

func BenchmarkPredictRequestDecode(b *testing.B) {
	body := benchBody(b, 672)
	b.Run("scan_pooled", func(b *testing.B) {
		b.ReportAllocs()
		var s predictScratch
		rd := bytes.NewReader(body)
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			if _, err := s.decode(rd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req api.PredictRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
