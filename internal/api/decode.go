package api

import (
	"bytes"
	"encoding/json"
	"strconv"
	"time"
	"unsafe"
)

// The mirror image of encode.go: one scanner per hot type, for exactly the
// bodies the encoders write. Keys are matched byte for byte, numbers are
// checked against the JSON grammar and converted in the same pass (floats
// by strconv's own exact and Eisel-Lemire conversions, see atof.go, and
// by strconv.ParseFloat where those give up; integers by strconv, so values
// are encoding/json's bit for bit), times are
// handed raw to time.Time.UnmarshalJSON, and strings of printable ASCII
// are taken with their one-character escapes. Anything else — an unknown,
// case-folded, escaped or duplicate key, null, a \u escape or a non-ASCII
// byte, a value of the wrong type, a number strconv rejects, any syntax
// error — makes the scanner give up, and encoding/json decodes the same
// bytes into a fresh value. Accepted and rejected bodies, values and error
// texts are therefore encoding/json's by construction; the tests only have
// to show that what a scanner accepts, it decodes as encoding/json does.

// Unmarshal is json.Unmarshal, by a scanner for the hot types when v
// points at a zero value (encoding/json would merge into anything else).
func Unmarshal(data []byte, v any) error {
	if scanInto(data, v) {
		return nil
	}
	return json.Unmarshal(data, v)
}

// scanInto reports whether a scanner decoded data into v.
func scanInto(data []byte, v any) bool {
	switch p := v.(type) {
	case *Instance:
		return *p == Instance{} && scanWhole(data, p, scanInstance)
	case *[]Instance:
		return *p == nil && scanWhole(data, p, func(b []byte, i int, s *[]Instance) int {
			return scanArray(b, i, s, scanInstance)
		})
	case *AuditEventsResponse:
		return p.Events == nil && scanWhole(data, p, scanAuditEvents)
	case *PredictResponse:
		return *p == PredictResponse{} && scanWhole(data, p, scanPredictResponse)
	}
	return false
}

// scanWhole scans data, which must hold one value and nothing but
// whitespace after it, into a fresh T and stores it in *p.
func scanWhole[T any](data []byte, p *T, scan func([]byte, int, *T) int) bool {
	var v T
	i := scan(data, skipSpace(data, 0), &v)
	if i < 0 || skipSpace(data, i) != len(data) {
		return false
	}
	*p = v
	return true
}

// DecodePredictRequest decodes body as json.NewDecoder on it would, bytes
// after the first value ignored. The scanner fills History and
// HistoryEvents from *floats and *bools, growing them, so the request
// borrows those buffers until the next decode into them.
func DecodePredictRequest(body []byte, floats *[]float64, bools *[]bool) (PredictRequest, error) {
	var req PredictRequest
	if scanPredictRequest(body, skipSpace(body, 0), &req, floats, bools) >= 0 {
		return req, nil
	}
	var fresh PredictRequest // not req, which would then live on the heap
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&fresh)
	return fresh, err
}

func scanPredictRequest(b []byte, i int, req *PredictRequest, floats *[]float64, bools *[]bool) int {
	return scanObject(b, i, func(key []byte, i int) (int, int) {
		switch string(key) {
		case "history":
			i = scanArray(b, i, floats, scanFloat)
			req.History = *floats
			return 1, i
		case "time":
			return 2, scanTime(b, i, &req.Time)
		case "event":
			return 3, scanBool(b, i, &req.Event)
		case "prev_event":
			return 4, scanBool(b, i, &req.PrevEvent)
		case "history_events":
			i = scanArray(b, i, bools, scanBool)
			req.HistoryEvents = *bools
			return 5, i
		}
		return 0, -1
	})
}

func scanPredictResponse(b []byte, i int, resp *PredictResponse) int {
	return scanObject(b, i, func(key []byte, i int) (int, int) {
		switch string(key) {
		case "model_id":
			return 1, scanString(b, i, &resp.ModelID)
		case "instance_id":
			return 2, scanString(b, i, &resp.InstanceID)
		case "version_id":
			return 3, scanString(b, i, &resp.VersionID)
		case "version":
			return 4, scanString(b, i, &resp.Version)
		case "learner":
			return 5, scanString(b, i, &resp.Learner)
		case "value":
			return 6, scanFloat(b, i, &resp.Value)
		case "stale":
			return 7, scanBool(b, i, &resp.Stale)
		}
		return 0, -1
	})
}

func scanInstance(b []byte, i int, in *Instance) int {
	return scanObject(b, i, func(key []byte, i int) (int, int) {
		switch string(key) {
		case "id":
			return 1, scanString(b, i, &in.ID)
		case "model_id":
			return 2, scanString(b, i, &in.ModelID)
		case "base_version_id":
			return 3, scanString(b, i, &in.BaseVersionID)
		case "project":
			return 4, scanString(b, i, &in.Project)
		case "name":
			return 5, scanString(b, i, &in.Name)
		case "city":
			return 6, scanString(b, i, &in.City)
		case "framework":
			return 7, scanString(b, i, &in.Framework)
		case "training_data":
			return 8, scanString(b, i, &in.TrainingData)
		case "code_pointer":
			return 9, scanString(b, i, &in.CodePointer)
		case "seed":
			return 10, scanInt(b, i, &in.Seed)
		case "epochs":
			return 11, scanInt(b, i, &in.Epochs)
		case "hyperparams":
			return 12, scanString(b, i, &in.Hyperparams)
		case "features":
			return 13, scanString(b, i, &in.Features)
		case "blob_location":
			return 14, scanString(b, i, &in.BlobLocation)
		case "created":
			return 15, scanTime(b, i, &in.Created)
		case "deprecated":
			return 16, scanBool(b, i, &in.Deprecated)
		}
		return 0, -1
	})
}

func scanAuditEvents(b []byte, i int, r *AuditEventsResponse) int {
	return scanObject(b, i, func(key []byte, i int) (int, int) {
		if string(key) != "events" {
			return 0, -1
		}
		return 1, scanArray(b, i, &r.Events, scanAuditEvent)
	})
}

func scanAuditEvent(b []byte, i int, ev *AuditEvent) int {
	return scanObject(b, i, func(key []byte, i int) (int, int) {
		switch string(key) {
		case "id":
			return 1, scanString(b, i, &ev.ID)
		case "seq":
			return 2, scanInt(b, i, &ev.Seq)
		case "time":
			return 3, scanTime(b, i, &ev.Time)
		case "actor":
			return 4, scanString(b, i, &ev.Actor)
		case "action":
			return 5, scanString(b, i, &ev.Action)
		case "entity_type":
			return 6, scanString(b, i, &ev.EntityType)
		case "entity_id":
			return 7, scanString(b, i, &ev.EntityID)
		case "model_id":
			return 8, scanString(b, i, &ev.ModelID)
		case "before":
			return 9, scanString(b, i, &ev.Before)
		case "after":
			return 10, scanString(b, i, &ev.After)
		case "detail":
			return 11, scanString(b, i, &ev.Detail)
		case "trace_id":
			return 12, scanString(b, i, &ev.TraceID)
		}
		return 0, -1
	})
}

// The scan functions take the index of a value's first byte and return
// the index just past it, or -1.

// scanObject scans the object at i. field scans the value of each key,
// starting at i, and returns the key's number (1 to 32; 0 for a key it
// does not know) with the index past the value. An unknown or repeated key
// is -1.
func scanObject(b []byte, i int, field func(key []byte, i int) (int, int)) int {
	if i >= len(b) || b[i] != '{' {
		return -1
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return i + 1
	}
	var seen uint32
	for {
		if i >= len(b) || b[i] != '"' {
			return -1
		}
		n := bytes.IndexByte(b[i+1:], '"')
		if n < 0 {
			return -1
		}
		key := b[i+1 : i+1+n]
		i = skipSpace(b, i+n+2)
		if i >= len(b) || b[i] != ':' {
			return -1
		}
		k, j := field(key, skipSpace(b, i+1))
		if k == 0 || j < 0 || seen&(1<<(k-1)) != 0 {
			return -1
		}
		seen |= 1 << (k - 1)
		i = skipSpace(b, j)
		if i < len(b) && b[i] == '}' {
			return i + 1
		}
		if i >= len(b) || b[i] != ',' {
			return -1
		}
		i = skipSpace(b, i+1)
	}
}

// scanArray sets *buf to the elements of the array at i, reusing its
// backing array; "[]" is an empty slice, never nil.
func scanArray[T any](b []byte, i int, buf *[]T, elem func([]byte, int, *T) int) int {
	if i >= len(b) || b[i] != '[' {
		return -1
	}
	out := (*buf)[:0]
	if out == nil {
		out = []T{}
	}
	i = skipSpace(b, i+1)
	for i >= len(b) || b[i] != ']' {
		if len(out) > 0 {
			if i >= len(b) || b[i] != ',' {
				return -1
			}
			i = skipSpace(b, i+1)
		}
		var v T
		out = append(out, v)
		if i = elem(b, i, &out[len(out)-1]); i < 0 {
			return -1
		}
		i = skipSpace(b, i)
	}
	*buf = out
	return i + 1
}

// scanString takes a string of printable ASCII with no escape but the
// one-character ones.
func scanString(b []byte, i int, s *string) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	escaped := false
	j := i + 1
	for ; j < len(b) && b[j] != '"'; j++ {
		switch {
		case strClass[b[j]]&inString != 0:
		case b[j] != '\\' || j+1 >= len(b) || unescape[b[j+1]] == 0:
			return -1 // a control or non-ASCII byte, or a \u escape
		default:
			escaped = true
			j++
		}
	}
	if j >= len(b) {
		return -1
	}
	if !escaped {
		*s = string(b[i+1 : j])
		return j + 1
	}
	out := make([]byte, 0, j-i-1)
	for k := i + 1; k < j; k++ {
		if b[k] == '\\' {
			k++
			out = append(out, unescape[b[k]])
		} else {
			out = append(out, b[k])
		}
	}
	*s = unsafe.String(&out[0], len(out)) // out is not written again
	return j + 1
}

// scanFloat converts the number scanNumber read: decimal.float gives
// strconv.ParseFloat's bits for the common numbers without reading the
// digits again, and ParseFloat itself takes the rest.
func scanFloat(b []byte, i int, f *float64) int {
	j, d := scanNumber(b, i)
	if j < 0 {
		return -1
	}
	if v, ok := d.float(); ok {
		*f = v
		return j
	}
	// The view never outlives the call: ParseFloat copies what its error
	// keeps.
	v, err := strconv.ParseFloat(unsafe.String(&b[i], j-i), 64)
	if err != nil {
		return -1 // out of range: encoding/json words that error
	}
	*f = v
	return j
}

// scanInt takes what encoding/json puts in an int64: an integer literal
// that fits.
func scanInt(b []byte, i int, n *int64) int {
	j, _ := scanNumber(b, i)
	if j < 0 {
		return -1
	}
	v, err := strconv.ParseInt(unsafe.String(&b[i], j-i), 10, 64)
	if err != nil {
		return -1
	}
	*n = v
	return j
}

func scanBool(b []byte, i int, v *bool) int {
	switch {
	case bytes.HasPrefix(b[i:], []byte("true")):
		*v = true
		return i + 4
	case bytes.HasPrefix(b[i:], []byte("false")):
		*v = false
		return i + 5
	}
	return -1
}

// scanTime accepts a string with no escape in it; time.Time.UnmarshalJSON
// gets the token quotes and all, as it does from encoding/json.
func scanTime(b []byte, i int, t *time.Time) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for j := i + 1; j < len(b) && b[j] >= ' ' && b[j] != '\\'; j++ {
		if b[j] == '"' {
			if t.UnmarshalJSON(b[i:j+1]) != nil {
				return -1
			}
			return j + 1
		}
	}
	return -1
}

// scanNumber returns the index past the JSON number starting at i, or -1,
// and the number as strconv's readFloat reads it: up to 19 significant
// digits, leading zeros skipped, later ones counted into the exponent.
// ParseFloat alone would also take hex, underscores, "inf" and "+1".
func scanNumber(b []byte, i int) (int, decimal) {
	var d decimal
	nd := 0 // significant digits in d.man
	if i < len(b) && b[i] == '-' {
		d.neg = true
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if c := uint64(b[i] - '0'); nd < 19 {
				d.man = d.man*10 + c
				nd++
			} else {
				d.exp10++
				d.trunc = d.trunc || c != 0
			}
		}
	default:
		return -1, d
	}
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			switch c := uint64(b[i] - '0'); {
			case nd == 19:
				d.trunc = d.trunc || c != 0
			case d.man == 0 && c == 0: // a leading zero
				d.exp10--
			default:
				d.man = d.man*10 + c
				nd++
				d.exp10--
			}
		}
		if i == start {
			return -1, d
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || neg) {
			i++
		}
		start, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 { // past any table, as readFloat caps it
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return -1, d
		}
		if neg {
			e = -e
		}
		d.exp10 += e
	}
	if d.man == 0 {
		d.exp10 = 0
	}
	return i, d
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}
