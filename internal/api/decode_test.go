package api

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
	b, err := json.Marshal(PredictRequest{History: s.Values(), Time: start.Add(time.Duration(points) * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeBoth decodes body with encoding/json (the reference) and with
// DecodePredictRequest into buffers an earlier request has dirtied, and
// fails t on any difference: error presence, type, text and syntax-error
// offset, and on success every field, floats by bit pattern, the time with
// its location, nil slices told from empty ones. It reports whether the
// scanner took the body.
func decodeBoth(t testing.TB, body []byte) (got PredictRequest, fast bool) {
	t.Helper()
	var want PredictRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)

	floats, bools := []float64{7, 7, 7}, []bool{true, true}
	got, gotErr := DecodePredictRequest(body, &floats, &bools)
	var scanned PredictRequest
	fast = scanPredictRequest(body, skipSpace(body, 0), &scanned, new([]float64), new([]bool)) >= 0

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
		// The gateway's handler test sends these on both paths.
		{`{"history":[1,3]}`, true},
		{`{"history":[1,3],"x":0}`, false},
		{" \n", false},
		{`[1,3]`, false},
		{`{"history":[1,3`, false},
		{`{"history":[1,3,x]}`, false},
		{`{"history":[1],"time":"noon"}`, false},
		{`{"history":[1,"3"]}`, false},
		{`null`, false},
		{`{"history":[1,3],"history_events":[true]}`, true},
		{`{"history":[1,3],"history_events":[]}`, true},
		{`{"history":[1,3],"history_events":[true],"x":0}`, false},
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

func BenchmarkPredictRequestDecode(b *testing.B) {
	body := benchBody(b, 672)
	b.Run("scan_pooled", func(b *testing.B) {
		b.ReportAllocs()
		var floats []float64
		var bools []bool
		for i := 0; i < b.N; i++ {
			if _, err := DecodePredictRequest(body, &floats, &bools); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req PredictRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The same request as the Go client sends it.
	var req PredictRequest
	if err := json.Unmarshal(body, &req); err != nil {
		b.Fatal(err)
	}
	bin, err := AppendPredictBinary(nil, &req)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		var floats []float64
		var bools []bool
		for i := 0; i < b.N; i++ {
			if _, err := DecodePredictBinary(bin, &floats, &bools); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// unmarshalBoth decodes data into a zero T with Unmarshal and with
// json.Unmarshal (the reference) and fails t on any difference: error
// presence, type and text, and on success the whole value, nil slices told
// from empty ones and floats by bit pattern. It reports whether a scanner
// took the data.
func unmarshalBoth[T any](t testing.TB, data []byte) (fast bool) {
	t.Helper()
	var got, want, probe T
	wantErr := json.Unmarshal(data, &want)
	gotErr := Unmarshal(data, &got)
	fast = scanInto(data, &probe)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%T %q: err = %v, encoding/json says %v", got, data, gotErr, wantErr)
	}
	if wantErr != nil {
		if fast {
			t.Fatalf("%T %q: scanner took what encoding/json refuses: %v", got, data, wantErr)
		}
		if gotErr.Error() != wantErr.Error() || reflect.TypeOf(gotErr) != reflect.TypeOf(wantErr) {
			t.Fatalf("%T %q: err = %T %v, encoding/json says %T %v", got, data, gotErr, gotErr, wantErr, wantErr)
		}
		return fast
	}
	if !reflect.DeepEqual(got, want) || (fast && !reflect.DeepEqual(probe, want)) {
		t.Fatalf("%T %q:\n got %#v\nwant %#v", got, data, got, want)
	}
	if g, ok := any(got).(PredictResponse); ok && math.Float64bits(g.Value) != math.Float64bits(any(want).(PredictResponse).Value) {
		t.Fatalf("%q: value %v, encoding/json says %v", data, g.Value, any(want).(PredictResponse).Value)
	}
	return fast
}

// The differential fuzz targets of the response scanners; their checked-in
// corpora under testdata/fuzz replay in plain `go test`. An instance body
// is tried both as a search answer and as a single instance. The predict
// request is fuzzed where the gateway decodes it, through its pooled
// scratch: serve's FuzzDecodePredictRequest.
func FuzzDecodeInstances(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		unmarshalBoth[[]Instance](t, data)
		unmarshalBoth[Instance](t, data)
	})
}

func FuzzDecodeAuditEvents(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		unmarshalBoth[AuditEventsResponse](t, data)
	})
}

func FuzzDecodePredictResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		unmarshalBoth[PredictResponse](t, data)
	})
}

// TestUnmarshalFastPathCoverage pins which side of the line a body falls
// on, as TestDecodeFastPathCoverage does for the predict request.
func TestUnmarshalFastPathCoverage(t *testing.T) {
	search, err := Marshal(benchInstances(20))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		body string
		fast bool
		try  func(testing.TB, []byte) bool
	}{
		{string(search), true, unmarshalBoth[[]Instance]},
		{`[]`, true, unmarshalBoth[[]Instance]},
		{` [ { "id" : "a" , "seed" : -3 , "created" : "2019-06-03T00:00:00.000000001+02:00" } ] `, true, unmarshalBoth[[]Instance]},
		{`[{"id":"a\"b\\c\/d\ne\tf"}]`, true, unmarshalBoth[[]Instance]},
		{`{"id":"a","deprecated":true}`, true, unmarshalBoth[Instance]},
		{`null`, false, unmarshalBoth[[]Instance]},
		{`[null]`, false, unmarshalBoth[[]Instance]},
		{`[{"id":"a","id":"b"}]`, false, unmarshalBoth[[]Instance]},
		{`[{"ID":"a"}]`, false, unmarshalBoth[[]Instance]},
		{`[{"id":"a","x":1}]`, false, unmarshalBoth[[]Instance]},
		{`[{"id":"\u003c"}]`, false, unmarshalBoth[[]Instance]},
		{`[{"id":"ü"}]`, false, unmarshalBoth[[]Instance]},
		{`[{"seed":1.5}]`, false, unmarshalBoth[[]Instance]},
		{`[{"seed":1e2}]`, false, unmarshalBoth[[]Instance]},
		{`[{"seed":9223372036854775808}]`, false, unmarshalBoth[[]Instance]},
		{`[{"seed":"1"}]`, false, unmarshalBoth[[]Instance]},
		{`[{"created":"2019-06-03"}]`, false, unmarshalBoth[[]Instance]},
		{`[{}] x`, false, unmarshalBoth[[]Instance]},
		{`{"events":[{"seq":7,"time":"2019-06-03T00:00:00Z","action":"instance.upload","entity_type":"instance","entity_id":"x","before":"1.0","after":"1.1"}]}`, true, unmarshalBoth[AuditEventsResponse]},
		{`{"events":[]}`, true, unmarshalBoth[AuditEventsResponse]},
		{`{}`, true, unmarshalBoth[AuditEventsResponse]},
		{`{"events":null}`, false, unmarshalBoth[AuditEventsResponse]},
		{`{"model_id":"m","instance_id":"i","version_id":"v","version":"1.0","learner":"linear_ar","value":-0,"stale":true}`, true, unmarshalBoth[PredictResponse]},
		{`{"model_id":"m","value":1e999}`, false, unmarshalBoth[PredictResponse]},
		{`{"model_id":"m","stale":null}`, false, unmarshalBoth[PredictResponse]},
	} {
		if fast := tc.try(t, []byte(tc.body)); fast != tc.fast {
			t.Errorf("body %.60q: fast path = %v, want %v", tc.body, fast, tc.fast)
		}
	}
}

// TestUnmarshalIntoNonZero shows why only zero targets are scanned:
// encoding/json merges into what is already there.
func TestUnmarshalIntoNonZero(t *testing.T) {
	in := Instance{ID: "old", City: "sf"}
	if err := Unmarshal([]byte(`{"id":"new"}`), &in); err != nil || in.ID != "new" || in.City != "sf" {
		t.Fatalf("got %+v, %v; want the id replaced and the city kept", in, err)
	}
}

func BenchmarkUnmarshalInstances(b *testing.B) {
	data, err := Marshal(benchInstances(20))
	if err != nil {
		b.Fatal(err)
	}
	for name, unmarshal := range map[string]func([]byte, any) error{"codec": Unmarshal, "encoding_json": json.Unmarshal} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var ins []Instance
				if err := unmarshal(data, &ins); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
