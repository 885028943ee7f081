package api

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// sameRequest fails t unless got carries want: floats by bit pattern, the
// time by instant and zone offset, both flags, and the events, nil told
// from empty.
func sameRequest(t testing.TB, where string, got, want PredictRequest) {
	t.Helper()
	if len(got.History) != len(want.History) {
		t.Fatalf("%s: %d history points, want %d", where, len(got.History), len(want.History))
	}
	for i := range want.History {
		if math.Float64bits(got.History[i]) != math.Float64bits(want.History[i]) {
			t.Fatalf("%s: history[%d] = %v, want %v", where, i, got.History[i], want.History[i])
		}
	}
	_, gotOff := got.Time.Zone()
	_, wantOff := want.Time.Zone()
	if !got.Time.Equal(want.Time) || gotOff != wantOff {
		t.Fatalf("%s: time %v, want %v", where, got.Time, want.Time)
	}
	if got.Event != want.Event || got.PrevEvent != want.PrevEvent {
		t.Fatalf("%s: event flags %v/%v, want %v/%v", where, got.Event, got.PrevEvent, want.Event, want.PrevEvent)
	}
	if (got.HistoryEvents == nil) != (want.HistoryEvents == nil) || len(got.HistoryEvents) != len(want.HistoryEvents) {
		t.Fatalf("%s: history_events %v, want %v", where, got.HistoryEvents, want.HistoryEvents)
	}
	for i := range want.HistoryEvents {
		if got.HistoryEvents[i] != want.HistoryEvents[i] {
			t.Fatalf("%s: history_events[%d] = %v, want %v", where, i, got.HistoryEvents[i], want.HistoryEvents[i])
		}
	}
}

// binaryRoundTrip encodes req, decodes the body into buffers an earlier
// request has dirtied, and fails t unless the request comes back whole
// and encodes again to the same bytes.
func binaryRoundTrip(t testing.TB, req PredictRequest) []byte {
	t.Helper()
	body, err := AppendPredictBinary(nil, &req)
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	if len(body) != predictBinarySize(&req) {
		t.Fatalf("%+v: %d bytes, predictBinarySize says %d", req, len(body), predictBinarySize(&req))
	}
	floats, bools := []float64{7, 7, 7}, []bool{true, true}
	got, err := DecodePredictBinary(body, &floats, &bools)
	if err != nil {
		t.Fatalf("%+v: decode: %v", req, err)
	}
	sameRequest(t, "binary round trip", got, req)
	again, err := AppendPredictBinary(nil, &got)
	if err != nil || !bytes.Equal(again, body) {
		t.Fatalf("%+v: re-encoded to %x (%v), first %x", req, again, err, body)
	}
	return body
}

// TestPredictBinaryLayout pins the bytes of one request against the
// layout PredictMediaType documents.
func TestPredictBinaryLayout(t *testing.T) {
	req := PredictRequest{
		History:       []float64{1.5, -2},
		Time:          time.Unix(1, 2).In(time.FixedZone("", -3600)),
		Event:         true,
		HistoryEvents: []bool{false, true},
	}
	want := strings.Join([]string{
		"47505201",         // magic "GPR", version 1
		"05",               // event, history_events present
		"0100000000000000", // seconds
		"02000000",         // nanoseconds
		"f0f1ffff",         // offset -3600
		"02000000",         // n
		"000000000000f83f", // 1.5
		"00000000000000c0", // -2
		"02",               // events: bit 1 set
	}, "")
	if got := hex.EncodeToString(binaryRoundTrip(t, req)); got != want {
		t.Fatalf("body %s, want %s", got, want)
	}
}

// TestPredictBinaryQuick round-trips generated requests: any finite float,
// times with zones and out of RFC 3339's years, events present, absent or
// empty.
func TestPredictBinaryQuick(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		g := gen{rand.New(rand.NewSource(seed))}
		req := PredictRequest{History: slice(g, g.float), Time: g.time(), Event: g.r.Intn(2) == 0, PrevEvent: g.r.Intn(2) == 0}
		for i, v := range req.History {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				req.History[i] = 0
			}
		}
		if g.r.Intn(2) == 0 {
			req.HistoryEvents = make([]bool, len(req.History))
			for i := range req.HistoryEvents {
				req.HistoryEvents[i] = g.r.Intn(2) == 0
			}
		}
		binaryRoundTrip(t, req)
		return true
	}, &quick.Config{MaxCount: 5000})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAppendPredictBinaryRefuses: what the layout cannot carry is an
// error, and the buffer comes back as it was.
func TestAppendPredictBinaryRefuses(t *testing.T) {
	for name, req := range map[string]PredictRequest{
		"NaN":             {History: []float64{1, math.NaN()}},
		"+Inf":            {History: []float64{math.Inf(1)}},
		"-Inf":            {History: []float64{2, 3, math.Inf(-1)}},
		"events too long": {History: []float64{1}, HistoryEvents: []bool{true, false}},
		"events empty":    {History: []float64{1}, HistoryEvents: []bool{}},
		"offset past int32": {
			History: []float64{1}, Time: time.Unix(0, 0).In(time.FixedZone("", 1<<40)),
		},
	} {
		b, err := AppendPredictBinary([]byte("prefix"), &req)
		if err == nil || string(b) != "prefix" {
			t.Errorf("%s: %q, %v; want an error and the buffer untouched", name, b, err)
		}
	}
}

// TestDecodePredictBinaryRefusals walks each refusal, starting from one
// good body.
func TestDecodePredictBinaryRefusals(t *testing.T) {
	good, err := AppendPredictBinary(nil, &PredictRequest{
		History: []float64{1, 2, 3}, Time: time.Unix(1e9, 0), HistoryEvents: []bool{true, false, true},
	})
	if err != nil {
		t.Fatal(err)
	}
	edit := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	le := func(b []byte, at int, v ...byte) []byte { copy(b[at:], v); return b }
	for _, tc := range []struct {
		name string
		body []byte
		want error
	}{
		{"empty", nil, errPredictShort},
		{"header cut", good[:predictHeader-1], errPredictShort},
		{"bad magic", edit(func(b []byte) []byte { b[0] = '{'; return b }), errPredictMagic},
		{"version 2", edit(func(b []byte) []byte { b[3] = 2; return b }), errPredictMagic},
		{"unknown flag", edit(func(b []byte) []byte { b[4] |= 1 << 3; return b }), errPredictFlags},
		{"nanoseconds 1e9", edit(func(b []byte) []byte { return le(b, 13, 0x00, 0xca, 0x9a, 0x3b) }), errPredictNanos},
		{"count past the body", edit(func(b []byte) []byte { return le(b, 21, 4) }), errPredictCount},
		{"count 2^32-1", edit(func(b []byte) []byte { return le(b, 21, 0xff, 0xff, 0xff, 0xff) }), errPredictCount},
		{"NaN", edit(func(b []byte) []byte { return le(b, predictHeader, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f) }), errPredictValue},
		{"+Inf", edit(func(b []byte) []byte { return le(b, predictHeader+8, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f) }), errPredictValue},
		{"-Inf", edit(func(b []byte) []byte { return le(b, predictHeader+16, 0, 0, 0, 0, 0, 0, 0xf0, 0xff) }), errPredictValue},
		{"events missing", good[:len(good)-1], errPredictEvents},
		{"event padding set", edit(func(b []byte) []byte { b[len(b)-1] |= 1 << 3; return b }), errPredictEvents},
		{"trailing after events", append(bytes.Clone(good), 0), errPredictTrailing},
		{"trailing without events", edit(func(b []byte) []byte { b[4] &^= flagHistoryEvents; return b }), errPredictTrailing},
	} {
		floats, bools := []float64{9}, []bool{true}
		req, err := DecodePredictBinary(tc.body, &floats, &bools)
		if err != tc.want || req.History != nil || req.HistoryEvents != nil {
			t.Errorf("%s: %+v, %v; want %v", tc.name, req, err, tc.want)
		}
	}
	// A count the body cannot hold is refused before the buffer grows.
	floats := make([]float64, 0, 1)
	huge := le(bytes.Clone(good[:predictHeader]), 21, 0xff, 0xff, 0xff, 0x7f)
	if _, err := DecodePredictBinary(huge, &floats, new([]bool)); err != errPredictCount || cap(floats) != 1 {
		t.Errorf("count 2^31-1 in a header-only body: %v, buffer cap %d", err, cap(floats))
	}
}

func TestIsPredictMediaType(t *testing.T) {
	for ct, want := range map[string]bool{
		PredictMediaType:                          true,
		"Application/VND.Gallery.Predict":         true,
		" application/vnd.gallery.predict ; v=1 ": true,
		"":                                     false,
		"application/json":                     false,
		"application/vnd.gallery.predict+json": false,
		"text/plain; application/vnd.gallery.predict": false,
	} {
		if got := IsPredictMediaType(ct); got != want {
			t.Errorf("IsPredictMediaType(%q) = %v, want %v", ct, got, want)
		}
	}
}

// FuzzDecodePredictBinary: no body panics the decoder, and a body it
// accepts is exactly the encoding of what it decoded. The checked-in
// corpus under testdata/fuzz replays in plain `go test`.
func FuzzDecodePredictBinary(f *testing.F) {
	floats, bools := []float64{}, []bool{}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodePredictBinary(body, &floats, &bools)
		if err != nil {
			return
		}
		again, err := AppendPredictBinary(nil, &req)
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("body %x decoded to %+v, which encodes to %x (%v)", body, req, again, err)
		}
	})
}
