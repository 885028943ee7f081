package api

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// PredictMediaType is the Content-Type of a binary predict body, the form
// the Go client sends: the history's float64s as their IEEE-754 bits, so
// neither side formats or parses decimal text. A body of any other type is
// the JSON PredictRequest.
//
// The layout, little-endian throughout:
//
//	0–3    'G' 'P' 'R' 0x01: magic, then the version
//	4      flags: bit 0 Event, bit 1 PrevEvent, bit 2 HistoryEvents present;
//	       the other bits are 0
//	5–20   Time: int64 Unix seconds, uint32 nanoseconds (< 1e9), int32 zone
//	       offset in seconds (0 decodes as UTC)
//	21–24  uint32 n, then n float64s: History, each finite
//	tail   only with flag bit 2: ⌈n/8⌉ bytes, bit i%8 of byte i/8 being
//	       HistoryEvents[i], unused bits 0; nothing follows
const PredictMediaType = "application/vnd.gallery.predict"

// IsPredictMediaType reports whether a Content-Type header names
// PredictMediaType, parameters and case aside.
func IsPredictMediaType(contentType string) bool {
	mt, _, _ := strings.Cut(contentType, ";")
	return strings.EqualFold(strings.TrimSpace(mt), PredictMediaType)
}

const (
	predictMagic = "GPR\x01"
	// predictHeader is the bytes before the first float.
	predictHeader = 25

	flagEvent         = 1 << 0
	flagPrevEvent     = 1 << 1
	flagHistoryEvents = 1 << 2
	flagsKnown        = flagEvent | flagPrevEvent | flagHistoryEvents
)

// predictBinarySize is the length of req's binary body.
func predictBinarySize(req *PredictRequest) int {
	n := predictHeader + 8*len(req.History)
	if req.HistoryEvents != nil {
		n += (len(req.History) + 7) / 8
	}
	return n
}

// AppendPredictBinary appends req's binary body to b. It refuses what the
// layout cannot carry: a non-finite history value (which JSON cannot
// carry either), HistoryEvents of another length than History, and a
// zone offset outside int32; b is then returned as it came. b grows once,
// to the body's size.
func AppendPredictBinary(b []byte, req *PredictRequest) ([]byte, error) {
	start := len(b)
	if req.HistoryEvents != nil && len(req.HistoryEvents) != len(req.History) {
		return b, fmt.Errorf("predict body: %d history_events for %d history points", len(req.HistoryEvents), len(req.History))
	}
	if uint64(len(req.History)) > math.MaxUint32 {
		return b, fmt.Errorf("predict body: %d history points", len(req.History))
	}
	_, offset := req.Time.Zone()
	if offset != int(int32(offset)) {
		return b, fmt.Errorf("predict body: zone offset %ds", offset)
	}
	var flags byte
	if req.Event {
		flags |= flagEvent
	}
	if req.PrevEvent {
		flags |= flagPrevEvent
	}
	if req.HistoryEvents != nil {
		flags |= flagHistoryEvents
	}
	b = append(slices.Grow(b, predictBinarySize(req)), predictMagic...)
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint64(b, uint64(req.Time.Unix()))
	b = binary.LittleEndian.AppendUint32(b, uint32(req.Time.Nanosecond()))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(offset)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(req.History)))
	for _, v := range req.History {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return b[:start], fmt.Errorf("predict body: unsupported value: %v", v)
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	if req.HistoryEvents == nil {
		return b, nil
	}
	var packed byte
	for i, e := range req.HistoryEvents {
		if e {
			packed |= 1 << (i % 8)
		}
		if i%8 == 7 || i == len(req.HistoryEvents)-1 {
			b = append(b, packed)
			packed = 0
		}
	}
	return b, nil
}

// The binary decoder's refusals; the gateway answers each with a 400.
var (
	errPredictShort    = errors.New("predict body: shorter than its header")
	errPredictMagic    = errors.New("predict body: bad magic or version")
	errPredictFlags    = errors.New("predict body: unknown flag bits")
	errPredictNanos    = errors.New("predict body: nanoseconds out of range")
	errPredictCount    = errors.New("predict body: history count exceeds the body")
	errPredictValue    = errors.New("predict body: non-finite history value")
	errPredictEvents   = errors.New("predict body: history_events bitmap truncated or padded with set bits")
	errPredictTrailing = errors.New("predict body: trailing bytes")
)

// DecodePredictBinary decodes a PredictMediaType body. Like
// DecodePredictRequest it fills History and HistoryEvents from *floats and
// *bools, growing them, so the request borrows those buffers until the
// next decode into them.
func DecodePredictBinary(body []byte, floats *[]float64, bools *[]bool) (PredictRequest, error) {
	var req PredictRequest
	if len(body) < predictHeader {
		return req, errPredictShort
	}
	if string(body[:4]) != predictMagic {
		return req, errPredictMagic
	}
	flags := body[4]
	if flags&^flagsKnown != 0 {
		return req, errPredictFlags
	}
	le := binary.LittleEndian
	sec, nsec := int64(le.Uint64(body[5:])), le.Uint32(body[13:])
	if nsec >= 1e9 {
		return req, errPredictNanos
	}
	req.Time = time.Unix(sec, int64(nsec)).UTC()
	if offset := int32(le.Uint32(body[17:])); offset != 0 {
		req.Time = req.Time.In(time.FixedZone("", int(offset)))
	}
	req.Event = flags&flagEvent != 0
	req.PrevEvent = flags&flagPrevEvent != 0

	// The count is checked against the bytes that follow before any
	// buffer grows to it.
	n, rest := int(le.Uint32(body[21:])), body[predictHeader:]
	if uint64(n) > uint64(len(rest))/8 {
		return PredictRequest{}, errPredictCount
	}
	hist := grow(*floats, n)
	for i := range hist {
		bits := le.Uint64(rest[8*i:])
		if bits&(0x7ff<<52) == 0x7ff<<52 { // exponent all ones: NaN or ±Inf
			return PredictRequest{}, errPredictValue
		}
		hist[i] = math.Float64frombits(bits)
	}
	*floats, req.History = hist, hist
	rest = rest[8*n:]
	if flags&flagHistoryEvents == 0 {
		if len(rest) != 0 {
			return PredictRequest{}, errPredictTrailing
		}
		return req, nil
	}
	packed := (n + 7) / 8
	if len(rest) < packed || (n%8 != 0 && rest[packed-1]>>(n%8) != 0) {
		return PredictRequest{}, errPredictEvents
	}
	if len(rest) > packed {
		return PredictRequest{}, errPredictTrailing
	}
	events := grow(*bools, n)
	for i := range events {
		events[i] = rest[i/8]&(1<<(i%8)) != 0
	}
	*bools, req.HistoryEvents = events, events
	return req, nil
}

// grow returns buf resliced to n elements, reallocated only when its
// capacity is short; never nil.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n || buf == nil {
		return make([]T, n)
	}
	return buf[:n]
}
