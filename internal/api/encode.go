package api

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// The hot JSON wire types — Instance, []Instance, AuditEventsResponse,
// PredictResponse — are encoded by hand: encoding/json costs reflection
// and several allocations per value, and both daemons and the client pay
// it on every registry read and every prediction. (A PredictRequest
// travels as its binary body, predictbin.go; encoding/json writes the rare
// JSON one.) Each
// type has one append encoder, whose output is byte for byte what
// encoding/json writes for it (field order, omitempty, HTML escaping, float
// and RFC 3339 formatting), quick-checked in encode_test.go. A value the
// encoder cannot represent — a non-finite float, a time outside what
// RFC 3339 can spell — makes it report !ok, and encoding/json encodes the
// value instead, failing as it always did.

// Encode writes v to buf as json.NewEncoder(buf).Encode(v) would,
// trailing newline included, and returns encoding/json's error for a value
// it cannot encode.
func Encode(buf *bytes.Buffer, v any) error {
	if b, ok := appendHot(buf.AvailableBuffer(), v); ok {
		buf.Write(append(b, '\n'))
		return nil
	}
	return json.NewEncoder(buf).Encode(v)
}

// marshalBufs holds Marshal's scratch, so that a large value is copied
// once, at its final size, as json.Marshal does.
var marshalBufs = sync.Pool{New: func() any { return new([]byte) }}

// Marshal is json.Marshal, by the type's encoder for the hot types.
func Marshal(v any) ([]byte, error) {
	bp := marshalBufs.Get().(*[]byte)
	defer marshalBufs.Put(bp)
	b, ok := appendHot((*bp)[:0], v)
	*bp = b
	if !ok {
		return json.Marshal(v)
	}
	return bytes.Clone(b), nil
}

// appendHot appends v by its type's encoder; !ok means v is of another
// type or holds a value the encoder cannot represent.
func appendHot(b []byte, v any) ([]byte, bool) {
	switch v := v.(type) {
	case Instance:
		return appendInstance(b, &v)
	case []Instance:
		return appendArray(b, v, appendInstance)
	case AuditEventsResponse:
		return appendAuditEvents(b, &v)
	case PredictResponse:
		return AppendPredictResponse(b, &v)
	}
	return b, false
}

// AppendPredictResponse appends resp as encoding/json would, without the
// newline; !ok means it holds a non-finite value.
func AppendPredictResponse(b []byte, resp *PredictResponse) ([]byte, bool) {
	b = appendString(append(b, `{"model_id":`...), resp.ModelID)
	b = appendString(append(b, `,"instance_id":`...), resp.InstanceID)
	b = appendString(append(b, `,"version_id":`...), resp.VersionID)
	b = appendString(append(b, `,"version":`...), resp.Version)
	b = appendOmitString(b, `,"learner":`, resp.Learner)
	b, ok := appendFloat(append(b, `,"value":`...), resp.Value)
	if resp.Stale {
		b = append(b, `,"stale":true`...)
	}
	return append(b, '}'), ok
}

func appendInstance(b []byte, in *Instance) ([]byte, bool) {
	b = appendString(append(b, `{"id":`...), in.ID)
	b = appendString(append(b, `,"model_id":`...), in.ModelID)
	b = appendString(append(b, `,"base_version_id":`...), in.BaseVersionID)
	b = appendOmitString(b, `,"project":`, in.Project)
	b = appendOmitString(b, `,"name":`, in.Name)
	b = appendOmitString(b, `,"city":`, in.City)
	b = appendOmitString(b, `,"framework":`, in.Framework)
	b = appendOmitString(b, `,"training_data":`, in.TrainingData)
	b = appendOmitString(b, `,"code_pointer":`, in.CodePointer)
	b = appendOmitInt(b, `,"seed":`, in.Seed)
	b = appendOmitInt(b, `,"epochs":`, in.Epochs)
	b = appendOmitString(b, `,"hyperparams":`, in.Hyperparams)
	b = appendOmitString(b, `,"features":`, in.Features)
	b = appendOmitString(b, `,"blob_location":`, in.BlobLocation)
	b, ok := appendTime(append(b, `,"created":`...), in.Created)
	b = strconv.AppendBool(append(b, `,"deprecated":`...), in.Deprecated)
	return append(b, '}'), ok
}

func appendAuditEvents(b []byte, r *AuditEventsResponse) ([]byte, bool) {
	b, ok := appendArray(append(b, `{"events":`...), r.Events, appendAuditEvent)
	return append(b, '}'), ok
}

func appendAuditEvent(b []byte, ev *AuditEvent) ([]byte, bool) {
	b = append(b, '{')
	if ev.ID != "" {
		b = appendString(append(b, `"id":`...), ev.ID)
		b = append(b, ',')
	}
	if ev.Seq != 0 {
		b = strconv.AppendInt(append(b, `"seq":`...), ev.Seq, 10)
		b = append(b, ',')
	}
	// omitempty never omits a struct, so a zero time is written.
	b, ok := appendTime(append(b, `"time":`...), ev.Time)
	b = appendOmitString(b, `,"actor":`, ev.Actor)
	b = appendString(append(b, `,"action":`...), ev.Action)
	b = appendString(append(b, `,"entity_type":`...), ev.EntityType)
	b = appendString(append(b, `,"entity_id":`...), ev.EntityID)
	b = appendOmitString(b, `,"model_id":`, ev.ModelID)
	b = appendOmitString(b, `,"before":`, ev.Before)
	b = appendOmitString(b, `,"after":`, ev.After)
	b = appendOmitString(b, `,"detail":`, ev.Detail)
	b = appendOmitString(b, `,"trace_id":`, ev.TraceID)
	return append(b, '}'), ok
}

// appendArray appends s as a JSON array of the elements elem appends; a
// nil slice is null, as encoding/json writes it.
func appendArray[T any](b []byte, s []T, elem func([]byte, *T) ([]byte, bool)) ([]byte, bool) {
	if s == nil {
		return append(b, "null"...), true
	}
	b = append(b, '[')
	ok := true
	for i := range s {
		if i > 0 {
			b = append(b, ',')
		}
		var eok bool
		b, eok = elem(b, &s[i])
		ok = ok && eok
	}
	return append(b, ']'), ok
}

func appendOmitString(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

func appendOmitInt(b []byte, key string, n int64) []byte {
	if n == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), n, 10)
}

const hexDigits = "0123456789abcdef"

// Byte classes of JSON string contents, as bits of strClass: inString is
// printable ASCII but the quote and the backslash, what a scanned string
// holds literally; htmlSafe is inString but <, > and &, what encoding/json
// writes literally.
const (
	inString = 1 << iota
	htmlSafe
)

// escapeOf and unescape map the bytes with one-character escapes to the
// escape letter and back.
var (
	escapeOf = [256]byte{'"': '"', '\\': '\\', '\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}
	unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}
)

var strClass = func() (t [256]uint8) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		if c != '"' && c != '\\' {
			t[c] = inString
			if c != '<' && c != '>' && c != '&' {
				t[c] |= htmlSafe
			}
		}
	}
	return t
}()

// appendString appends s as a JSON string the way encoding/json does:
// HTML-safe (<, > and & as \u escapes), the short escapes for \b \f \n \r
// \t, other control bytes as \u00xx, U+2028 and U+2029 escaped, and each
// byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if strClass[c]&htmlSafe != 0 {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			if e := escapeOf[c]; e != 0 {
				b = append(b, '\\', e)
			} else {
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendFloat appends f in encoding/json's float64 format: strconv's
// shortest 'f' form, or 'e' for magnitudes under 1e-6 or from 1e21, with
// the exponent's leading zero trimmed. A non-finite f is !ok.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
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
	return b, true
}

// appendTime appends t as time.Time.MarshalJSON does, quoted RFC 3339
// with nanoseconds. What MarshalJSON refuses is !ok: a year that is not
// four digits, or a zone offset of 24 hours or more.
func appendTime(b []byte, t time.Time) ([]byte, bool) {
	n := len(b) + 1
	b = t.AppendFormat(append(b, '"'), time.RFC3339Nano)
	ok := b[n+4] == '-'
	if end := b[len(b)-1]; ok && end != 'Z' {
		h := b[len(b)-6:]
		ok = (h[0] == '+' || h[0] == '-') && (h[1]-'0')*10+(h[2]-'0') < 24
	}
	return append(b, '"'), ok
}
