package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// jsonEncode is the reference: what json.NewEncoder writes for v.
func jsonEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// encodeBoth fails t unless the type's encoder writes what encoding/json
// writes for v, and gives up exactly on the values encoding/json refuses.
// Encode, Marshal and the decoders are checked on the same value.
func encodeBoth(t testing.TB, v any) {
	t.Helper()
	want, wantErr := jsonEncode(v)
	b, ok := appendHot(nil, v)
	if ok != (wantErr == nil) {
		t.Fatalf("%#v: encoder ok = %v, encoding/json says %v", v, ok, wantErr)
	}
	if ok && !bytes.Equal(append(b, '\n'), want) {
		t.Fatalf("%#v:\n got %s\nwant %s", v, b, want)
	}
	buf := bytes.NewBufferString("prefix")
	err := Encode(buf, v)
	if (err == nil) != (wantErr == nil) || (err == nil && buf.String() != "prefix"+string(want)) {
		t.Fatalf("%#v: Encode = %q, %v; encoding/json says %q, %v", v, buf, err, want, wantErr)
	}
	if m, err := Marshal(v); err == nil && !bytes.Equal(append(m, '\n'), want) {
		t.Fatalf("%#v: Marshal = %s", v, m)
	}
	if wantErr != nil {
		return
	}
	switch v.(type) {
	case Instance:
		unmarshalBoth[Instance](t, want)
	case []Instance:
		unmarshalBoth[[]Instance](t, want)
	case AuditEventsResponse:
		unmarshalBoth[AuditEventsResponse](t, want)
	case PredictResponse:
		unmarshalBoth[PredictResponse](t, want)
	}
}

// gen draws wire values: strings mixing plain ASCII with everything
// encoding/json escapes or replaces, floats across both notations and
// non-finite ones, times with zones and with years outside 0–9999.
type gen struct{ r *rand.Rand }

var genStrings = []string{
	"", "a", "demand-sf", "0af7651916cd43dd", " ", "/", "'", "<", ">", "&", "\"", "\\",
	"\t", "\n", "\r", "\b", "\f", "\x00", "\x1f", "\x7f", "é", "日本", "\u2028", "\u2029",
	"\xff", "\xe2\x80", "\U0001F600", "\ufffd",
}

func (g gen) string() string {
	var sb strings.Builder
	for n := g.r.Intn(5); n > 0; n-- {
		sb.WriteString(genStrings[g.r.Intn(len(genStrings))])
	}
	return sb.String()
}

func (g gen) int() int64 {
	switch g.r.Intn(5) {
	case 0:
		return 0
	case 1:
		return math.MinInt64
	case 2:
		return math.MaxInt64
	}
	return g.r.Int63n(2000) - 1000
}

func (g gen) float() float64 {
	switch g.r.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return []float64{1e-6, 0.0000009999, 1e21, 999999999999999999999, math.MaxFloat64, math.SmallestNonzeroFloat64}[g.r.Intn(6)]
	case 3:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[g.r.Intn(3)]
	}
	return g.r.NormFloat64() * math.Pow(10, float64(g.r.Intn(60)-30))
}

var genZones = []*time.Location{
	time.UTC, time.FixedZone("", 2*3600), time.FixedZone("", -(5*3600 + 30*60)),
	time.FixedZone("CEST", 2*3600), time.FixedZone("", 3661), time.FixedZone("", 24*3600),
}

func (g gen) time() time.Time {
	switch g.r.Intn(6) {
	case 0:
		return time.Time{}
	case 1:
		return time.Date([]int{-1, 10000, 0, 9999}[g.r.Intn(4)], 12, 31, 23, 59, 59, 999999999, time.UTC)
	}
	t := time.Unix(g.r.Int63n(4e9), g.r.Int63n(1e9)*int64(g.r.Intn(2)))
	return t.In(genZones[g.r.Intn(len(genZones))])
}

func (g gen) instance() Instance {
	return Instance{
		ID: g.string(), ModelID: g.string(), BaseVersionID: g.string(), Project: g.string(),
		Name: g.string(), City: g.string(), Framework: g.string(), TrainingData: g.string(),
		CodePointer: g.string(), Seed: g.int(), Epochs: g.int(), Hyperparams: g.string(),
		Features: g.string(), BlobLocation: g.string(), Created: g.time(), Deprecated: g.r.Intn(2) == 0,
	}
}

func (g gen) auditEvent() AuditEvent {
	return AuditEvent{
		ID: g.string(), Seq: g.int(), Time: g.time(), Actor: g.string(), Action: g.string(),
		EntityType: g.string(), EntityID: g.string(), ModelID: g.string(), Before: g.string(),
		After: g.string(), Detail: g.string(), TraceID: g.string(),
	}
}

// slice returns n elements of elem, nil one time in four.
func slice[T any](g gen, elem func() T) []T {
	if g.r.Intn(4) == 0 {
		return nil
	}
	s := make([]T, g.r.Intn(4))
	for i := range s {
		s[i] = elem()
	}
	return s
}

func (g gen) value() any {
	switch g.r.Intn(4) {
	case 0:
		return g.instance()
	case 1:
		return slice(g, g.instance)
	case 2:
		return AuditEventsResponse{Events: slice(g, g.auditEvent)}
	}
	return PredictResponse{
		ModelID: g.string(), InstanceID: g.string(), VersionID: g.string(), Version: g.string(),
		Learner: g.string(), Value: g.float(), Stale: g.r.Intn(2) == 0,
	}
}

// TestEncodeQuick is the encoders' oracle: for generated values of every
// codec type, the bytes are encoding/json's, the encoder gives up exactly
// where encoding/json fails, and what the scanners take back decodes as
// encoding/json decodes it.
func TestEncodeQuick(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		encodeBoth(t, gen{rand.New(rand.NewSource(seed))}.value())
		return true
	}, &quick.Config{MaxCount: 5000})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCodecCoversEveryField sets every exported field of each codec type,
// found by reflection rather than by name, so a field added to a type
// without its encoder and scanner fails here: the encoder would leave it
// off the wire, and the scanner would hand every body to encoding/json.
func TestCodecCoversEveryField(t *testing.T) {
	for _, tc := range []struct {
		v    any
		scan func(testing.TB, []byte) bool
	}{
		{new(Instance), unmarshalBoth[Instance]},
		{new([]Instance), unmarshalBoth[[]Instance]},
		{new(AuditEventsResponse), unmarshalBoth[AuditEventsResponse]},
		{new(PredictResponse), unmarshalBoth[PredictResponse]},
	} {
		v := reflect.ValueOf(tc.v).Elem()
		fillNonZero(t, v)
		encodeBoth(t, v.Interface())
		b, ok := appendHot(nil, v.Interface())
		if !ok || !tc.scan(t, b) {
			t.Errorf("%T: encoder ok = %v, but the scanner refuses %s", v.Interface(), ok, b)
		}
	}
	// A PredictRequest has no JSON encoder of its own: encoding/json's
	// bytes must go through the scanner, and the binary body must carry
	// every field both ways.
	var req PredictRequest
	fillNonZero(t, reflect.ValueOf(&req).Elem())
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, fast := decodeBoth(t, b); !fast {
		t.Errorf("PredictRequest: the scanner refuses %s", b)
	}
	binaryRoundTrip(t, req)
}

// fillNonZero sets v, and every exported field and slice element within
// it, to a value encoding/json would not omit.
func fillNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(t, v.Index(0))
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Date(2019, 6, 3, 1, 2, 3, 4, time.FixedZone("", 7200))))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, v.Field(i))
		}
	default:
		t.Fatalf("codec field of kind %s: teach the encoder, the scanner and this test", v.Kind())
	}
}

func TestAppendPredictResponseMatchesEncodingJSON(t *testing.T) {
	cases := []PredictResponse{
		{},
		{ModelID: "demand-sf", InstanceID: "inst-1", VersionID: "v-9", Version: "3.2", Value: 127.25},
		{ModelID: "m", InstanceID: "i", VersionID: "v", Version: "1.0", Learner: "linear_ar", Value: -0.125, Stale: true},
		{ModelID: "m", Value: 1e-9},            // exponent form with zero-trim
		{ModelID: "m", Value: 3.5e21},          // large exponent form
		{ModelID: "m", Value: 1e-6},            // boundary: exactly 1e-6 stays decimal
		{ModelID: "m", Value: 0.0000009999},    // just under the boundary
		{ModelID: "m", Value: math.MaxFloat64}, // 'e' form
		{ModelID: "m", Value: 5},               // integral float
		{ModelID: `we"ird\mo<del>&`, InstanceID: "ünïcode", VersionID: "tab\tchar", Version: "1.0", Value: 1},
		{ModelID: "m", Value: math.NaN()}, // encoding/json refuses it, and so does the encoder
	}
	for _, resp := range cases {
		encodeBoth(t, resp)
	}
}

func TestAppendPredictResponseQuick(t *testing.T) {
	err := quick.Check(func(model, inst, ver, version, learner string, mant int64, exp int8, stale bool) bool {
		// Spread values across the full float range, including the
		// notation switchover boundaries.
		val := float64(mant) * math.Pow(10, float64(exp%30))
		if math.IsInf(val, 0) || math.IsNaN(val) {
			val = 0
		}
		encodeBoth(t, PredictResponse{
			ModelID: model, InstanceID: inst, VersionID: ver,
			Version: version, Learner: learner, Value: val, Stale: stale,
		})
		return true
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAppendPredictResponseZeroAlloc pins the point of the exercise:
// encoding into a reused buffer allocates nothing.
func TestAppendPredictResponseZeroAlloc(t *testing.T) {
	resp := PredictResponse{
		ModelID: "demand-sf", InstanceID: "inst-1", VersionID: "v-9",
		Version: "3.2", Learner: "linear_ar", Value: 127.25,
	}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(1000, func() {
		buf, _ = AppendPredictResponse(buf[:0], &resp)
	})
	if allocs != 0 {
		t.Fatalf("AppendPredictResponse allocates %.1f per op, want 0", allocs)
	}
}

// benchInstances is a search answer as galleryd writes it.
func benchInstances(n int) []Instance {
	out := make([]Instance, n)
	for i := range out {
		out[i] = Instance{
			ID: "6ba7b810-9dad-11d1-80b4-00c04fd430c8", ModelID: "6ba7b811-9dad-11d1-80b4-00c04fd430c8",
			BaseVersionID: "demand-forecast", Project: "marketplace", Name: "demand", City: "sf",
			Framework: "linear_ar", TrainingData: "hive://trips/2019-06", CodePointer: "git@repo:forecast@3f2c",
			Seed: int64(i), Epochs: 20, Hyperparams: `{"lags":48}`, Features: "hour,dow,event",
			BlobLocation: "blob/6ba7b810", Created: time.Date(2019, 6, 3, 4, 5, 6, 789, time.UTC),
		}
	}
	return out
}

func BenchmarkEncode(b *testing.B) {
	for name, v := range map[string]any{
		"instances_20": benchInstances(20),
		"predict_response": PredictResponse{
			ModelID: "demand-sf", InstanceID: "inst-1", VersionID: "v-9",
			Version: "3.2", Learner: "linear_ar", Value: 127.25,
		},
	} {
		for side, marshal := range map[string]func(any) ([]byte, error){"codec": Marshal, "encoding_json": json.Marshal} {
			b.Run(name+"/"+side, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := marshal(v); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
