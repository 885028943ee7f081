package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"gallery/internal/api"
	"gallery/internal/obs/httpmw"
)

// The /v1/predict hot path encodes one small fixed-shape response per
// request. encoding/json costs reflection plus several allocations per
// call; at gateway QPS that is the dominant per-request garbage. This
// encoder appends the response into a pooled buffer instead —
// byte-for-byte identical output (field order, omitempty, HTML escaping,
// float formatting, trailing newline) so clients and tests cannot tell
// the difference, verified against encoding/json in encode_test.go.

var predictBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// writePredictResponse writes resp as encoding/json would, reusing a
// pooled buffer and setting Content-Length. Responses that the fast
// path cannot represent (non-finite values, which encoding/json rejects)
// fall back to the generic writer, which answers them with a 500.
func writePredictResponse(w http.ResponseWriter, resp api.PredictResponse) {
	if math.IsNaN(resp.Value) || math.IsInf(resp.Value, 0) {
		httpmw.WriteJSON(w, http.StatusOK, resp)
		return
	}
	bp := predictBufPool.Get().(*[]byte)
	b := appendPredictResponse((*bp)[:0], resp)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	*bp = b
	predictBufPool.Put(bp)
}

// appendPredictResponse appends the encoding/json serialization of resp
// (with json.Encoder's trailing newline).
func appendPredictResponse(b []byte, resp api.PredictResponse) []byte {
	b = append(b, `{"model_id":`...)
	b = appendJSONString(b, resp.ModelID)
	b = append(b, `,"instance_id":`...)
	b = appendJSONString(b, resp.InstanceID)
	b = append(b, `,"version_id":`...)
	b = appendJSONString(b, resp.VersionID)
	b = append(b, `,"version":`...)
	b = appendJSONString(b, resp.Version)
	if resp.Learner != "" {
		b = append(b, `,"learner":`...)
		b = appendJSONString(b, resp.Learner)
	}
	b = append(b, `,"value":`...)
	b = appendJSONFloat(b, resp.Value)
	if resp.Stale {
		b = append(b, `,"stale":true`...)
	}
	b = append(b, '}', '\n')
	return b
}

// appendJSONString appends s as a JSON string the way encoding/json
// does, including its HTML-safe escaping of <, > and &. Identifiers on
// this path are plain ASCII, so the slow cases delegate to
// encoding/json rather than duplicating its escape tables.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, err := json.Marshal(s)
			if err != nil { // unreachable: strings always marshal
				return append(b, `""`...)
			}
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f using encoding/json's float64 format: like
// strconv 'g' but preferring 'f' notation unless the magnitude is
// extreme, and trimming the exponent's leading zero. f must be finite.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	n := len(b)
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if m := len(b); m >= n+4 && b[m-4] == 'e' && b[m-3] == '-' && b[m-2] == '0' {
			b[m-2] = b[m-1]
			b = b[:m-1]
		}
	}
	return b
}
