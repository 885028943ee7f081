package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"gallery/internal/api"
)

// The mirror image of encode.go. encoding/json decodes a predict body by
// reflection into fresh slices — for a 672-point history that was half the
// request. A scanner for exactly the bodies clients send fills
// api.PredictRequest from pooled scratch instead: the five keys matched
// byte for byte, numbers checked against the JSON grammar and converted by
// strconv.ParseFloat (the conversion encoding/json uses, so values are
// bit-identical), the time token handed raw to time.Time.UnmarshalJSON,
// bytes after the closing brace ignored as Decoder.Decode ignores them.
// Anything else — unknown, case-folded, escaped or duplicate key, null, a
// value of the wrong type, a number ParseFloat rejects, any syntax error —
// makes the scanner give up, and encoding/json decodes the same bytes into
// a fresh struct. Accepted and rejected bodies, values and error texts are
// therefore encoding/json's by construction; decode_test.go only has to
// show that what the scanner accepts, it decodes as encoding/json does.

// maxPredictBody is the largest predict body served; one byte more is a 413.
const maxPredictBody = 4 << 20

// Scratch grown past these by one large request is dropped, not pooled.
const (
	maxPooledBody   = 64 << 10
	maxPooledPoints = 8 << 10
)

// predictScratch is one request's buffers. The request decoded from it
// borrows floats and bools until release.
type predictScratch struct {
	body   bytes.Buffer
	floats []float64
	bools  []bool
}

var predictScratchPool = sync.Pool{
	New: func() any {
		// Non-nil even when empty: "[]" decodes to an empty, not a nil, slice.
		return &predictScratch{floats: make([]float64, 0, 64), bools: make([]bool, 0, 64)}
	},
}

func (s *predictScratch) release() {
	if s.body.Cap() <= maxPooledBody && cap(s.floats) <= maxPooledPoints && cap(s.bools) <= maxPooledPoints {
		predictScratchPool.Put(s)
	}
}

// decode reads r to EOF and returns the request in it, exactly as
// json.NewDecoder(r).Decode would have — except that it has then seen the
// whole body, so a read error (a body over the limit) is reported even
// when a complete request came first.
func (s *predictScratch) decode(r io.Reader) (api.PredictRequest, error) {
	s.body.Reset()
	if _, err := s.body.ReadFrom(r); err != nil {
		return api.PredictRequest{}, err
	}
	if req, ok := s.scan(); ok {
		return req, nil
	}
	var req api.PredictRequest
	err := json.NewDecoder(bytes.NewReader(s.body.Bytes())).Decode(&req)
	return req, err
}

// scan is the fast path; !ok means "ask encoding/json", not "malformed".
func (s *predictScratch) scan() (req api.PredictRequest, ok bool) {
	b := s.body.Bytes()
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return req, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return req, true
	}
	var seen uint8
	for {
		if i >= len(b) || b[i] != '"' {
			return req, false
		}
		n := bytes.IndexByte(b[i+1:], '"')
		if n < 0 {
			return req, false
		}
		key := b[i+1 : i+1+n]
		i = skipSpace(b, i+n+2)
		if i >= len(b) || b[i] != ':' {
			return req, false
		}
		i = skipSpace(b, i+1)
		var bit uint8
		switch string(key) {
		case "history":
			bit = 1
			req.History, i = scanArray(b, i, &s.floats, scanFloat)
		case "time":
			bit = 2
			req.Time, i = scanTime(b, i)
		case "event":
			bit = 4
			req.Event, i = scanBool(b, i)
		case "prev_event":
			bit = 8
			req.PrevEvent, i = scanBool(b, i)
		case "history_events":
			bit = 16
			req.HistoryEvents, i = scanArray(b, i, &s.bools, scanBool)
		}
		if bit == 0 || i < 0 || seen&bit != 0 {
			return req, false
		}
		seen |= bit
		i = skipSpace(b, i)
		if i < len(b) && b[i] == '}' {
			return req, true
		}
		if i >= len(b) || b[i] != ',' {
			return req, false
		}
		i = skipSpace(b, i+1)
	}
}

// The scan* functions take the index of a value's first byte and return
// the value with the index just past it, or -1.

// scanArray fills *buf with the elements elem scans and returns it.
func scanArray[T any](b []byte, i int, buf *[]T, elem func([]byte, int) (T, int)) ([]T, int) {
	if i >= len(b) || b[i] != '[' {
		return nil, -1
	}
	out := (*buf)[:0]
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return out, i + 1
	}
	for {
		var v T
		if v, i = elem(b, i); i < 0 {
			return nil, -1
		}
		out = append(out, v)
		i = skipSpace(b, i)
		if i < len(b) && b[i] == ']' {
			*buf = out // keep what append grew
			return out, i + 1
		}
		if i >= len(b) || b[i] != ',' {
			return nil, -1
		}
		i = skipSpace(b, i+1)
	}
}

func scanFloat(b []byte, i int) (float64, int) {
	j := scanNumber(b, i)
	if j < 0 {
		return 0, -1
	}
	// The view never outlives the call: ParseFloat copies what its error
	// keeps.
	f, err := strconv.ParseFloat(unsafe.String(&b[i], j-i), 64)
	if err != nil {
		return 0, -1 // out of range: encoding/json words that error
	}
	return f, j
}

func scanBool(b []byte, i int) (bool, int) {
	switch {
	case bytes.HasPrefix(b[i:], []byte("true")):
		return true, i + 4
	case bytes.HasPrefix(b[i:], []byte("false")):
		return false, i + 5
	}
	return false, -1
}

// scanTime accepts a string with no escape in it; time.Time.UnmarshalJSON
// gets the token quotes and all, as it does from encoding/json.
func scanTime(b []byte, i int) (time.Time, int) {
	var t time.Time
	if i >= len(b) || b[i] != '"' {
		return t, -1
	}
	for j := i + 1; j < len(b) && b[j] >= ' ' && b[j] != '\\'; j++ {
		if b[j] == '"' {
			if t.UnmarshalJSON(b[i:j+1]) != nil {
				return t, -1
			}
			return t, j + 1
		}
	}
	return t, -1
}

// scanNumber returns the index past the JSON number starting at i, or -1.
// ParseFloat alone would also take hex, underscores, "inf" and "+1".
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}
