package profile

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// A minimal reader for the pprof protobuf format (profile.proto), scoped
// to exactly what summarization needs: the string table, the
// function/location tables, the sample-type list, and the samples. The
// runtime's own profiles are the only input, so unknown fields are
// skipped rather than rejected — the parser must keep working as the
// toolchain adds fields.
//
// Field numbers, from profile.proto:
//
//	Profile:   1 sample_type, 2 sample, 4 location, 5 function,
//	           6 string_table, 10 duration_nanos
//	ValueType: 1 type, 2 unit         (string-table indexes)
//	Sample:    1 location_id, 2 value (repeated, possibly packed)
//	Location:  1 id, 4 line
//	Line:      1 function_id
//	Function:  1 id, 2 name           (name is a string-table index)

// errMalformed reports pprof bytes the walker could not decode.
var errMalformed = errors.New("profile: malformed pprof data")

// maxProfileInput bounds decompressed pprof input so a corrupt gzip
// stream cannot balloon memory.
const maxProfileInput = 64 << 20

// protoReader walks a protobuf buffer.
type protoReader struct {
	b   []byte
	pos int
}

func (r *protoReader) done() bool { return r.pos >= len(r.b) }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	var shift uint
	for shift < 64 {
		if r.pos >= len(r.b) {
			return 0, errMalformed
		}
		b := r.b[r.pos]
		r.pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
	return 0, errMalformed
}

// tag reads one field tag, returning (fieldNumber, wireType).
func (r *protoReader) tag() (int, int, error) {
	t, err := r.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(t >> 3), int(t & 7), nil
}

// bytesField reads a length-delimited payload (wire type 2).
func (r *protoReader) bytesField() ([]byte, error) {
	n, err := r.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.pos) {
		return nil, errMalformed
	}
	out := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

// skip discards one field's payload by wire type.
func (r *protoReader) skip(wire int) error {
	switch wire {
	case 0:
		_, err := r.varint()
		return err
	case 1:
		if len(r.b)-r.pos < 8 {
			return errMalformed
		}
		r.pos += 8
	case 2:
		_, err := r.bytesField()
		return err
	case 5:
		if len(r.b)-r.pos < 4 {
			return errMalformed
		}
		r.pos += 4
	default:
		return errMalformed
	}
	return nil
}

// uint64s appends one repeated-uint64 field occurrence to dst, handling
// both packed (wire 2) and unpacked (wire 0) encodings — the runtime
// packs when a sample has more than two frames, so both appear in
// practice.
func (r *protoReader) uint64s(wire int, dst []uint64) ([]uint64, error) {
	if wire == 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		return append(dst, v), nil
	}
	if wire != 2 {
		return nil, errMalformed
	}
	raw, err := r.bytesField()
	if err != nil {
		return nil, err
	}
	sub := protoReader{b: raw}
	for !sub.done() {
		v, err := sub.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// rawSample is one decoded Sample message.
type rawSample struct {
	locs   []uint64
	values []int64
}

// rawProfile is the decoded subset of one pprof profile.
type rawProfile struct {
	strings     []string
	sampleTypes [][2]int64 // {type, unit} string-table indexes
	samples     []rawSample
	locFuncs    map[uint64][]uint64 // location id -> function ids, leaf-inline first
	funcNames   map[uint64]int64    // function id -> name string-table index
	durationNS  int64
}

// funcName resolves a function id to its name, or "" when unknown.
func (p *rawProfile) funcName(id uint64) string {
	idx, ok := p.funcNames[id]
	if !ok || idx < 0 || idx >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[idx]
}

// parsePprof decodes raw (gzip-compressed or plain) pprof protobuf bytes.
func parsePprof(data []byte) (*rawProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		defer zr.Close()
		plain, err := io.ReadAll(io.LimitReader(zr, maxProfileInput))
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		data = plain
	}
	p := &rawProfile{
		locFuncs:  make(map[uint64][]uint64),
		funcNames: make(map[uint64]int64),
	}
	r := protoReader{b: data}
	for !r.done() {
		num, wire, err := r.tag()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			raw, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			vt, err := parseValueType(raw)
			if err != nil {
				return nil, err
			}
			p.sampleTypes = append(p.sampleTypes, vt)
		case 2: // sample
			raw, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			s, err := parseSample(raw)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			raw, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			if err := parseLocation(raw, p.locFuncs); err != nil {
				return nil, err
			}
		case 5: // function
			raw, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			if err := parseFunction(raw, p.funcNames); err != nil {
				return nil, err
			}
		case 6: // string_table
			raw, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			p.strings = append(p.strings, string(raw))
		case 10: // duration_nanos
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			p.durationNS = int64(v)
		default:
			if err := r.skip(wire); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

func parseValueType(raw []byte) ([2]int64, error) {
	var vt [2]int64
	r := protoReader{b: raw}
	for !r.done() {
		num, wire, err := r.tag()
		if err != nil {
			return vt, err
		}
		switch num {
		case 1, 2:
			v, err := r.varint()
			if err != nil {
				return vt, err
			}
			vt[num-1] = int64(v)
		default:
			if err := r.skip(wire); err != nil {
				return vt, err
			}
		}
	}
	return vt, nil
}

func parseSample(raw []byte) (rawSample, error) {
	var s rawSample
	r := protoReader{b: raw}
	for !r.done() {
		num, wire, err := r.tag()
		if err != nil {
			return s, err
		}
		switch num {
		case 1:
			s.locs, err = r.uint64s(wire, s.locs)
		case 2:
			var vals []uint64
			vals, err = r.uint64s(wire, nil)
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
		default:
			err = r.skip(wire)
		}
		if err != nil {
			return s, err
		}
	}
	return s, nil
}

func parseLocation(raw []byte, locFuncs map[uint64][]uint64) error {
	var id uint64
	var fns []uint64
	r := protoReader{b: raw}
	for !r.done() {
		num, wire, err := r.tag()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			id, err = r.varint()
		case 4: // line; lines[0] is the innermost inlined frame
			var line []byte
			line, err = r.bytesField()
			if err == nil {
				var fid uint64
				fid, err = parseLineFunc(line)
				if err == nil && fid != 0 {
					fns = append(fns, fid)
				}
			}
		default:
			err = r.skip(wire)
		}
		if err != nil {
			return err
		}
	}
	if id != 0 {
		locFuncs[id] = fns
	}
	return nil
}

func parseLineFunc(raw []byte) (uint64, error) {
	var fid uint64
	r := protoReader{b: raw}
	for !r.done() {
		num, wire, err := r.tag()
		if err != nil {
			return 0, err
		}
		if num == 1 {
			fid, err = r.varint()
		} else {
			err = r.skip(wire)
		}
		if err != nil {
			return 0, err
		}
	}
	return fid, nil
}

func parseFunction(raw []byte, funcNames map[uint64]int64) error {
	var id uint64
	var name int64
	r := protoReader{b: raw}
	for !r.done() {
		num, wire, err := r.tag()
		if err != nil {
			return err
		}
		switch num {
		case 1:
			id, err = r.varint()
		case 2:
			var v uint64
			v, err = r.varint()
			name = int64(v)
		default:
			err = r.skip(wire)
		}
		if err != nil {
			return err
		}
	}
	if id != 0 {
		funcNames[id] = name
	}
	return nil
}

// preferredType names the sample-type each kind summarizes: cumulative
// time for CPU and contention profiles, live bytes for heap, counts for
// goroutines. A profile missing the preferred type falls back to its
// last value column (the runtime's convention for "the" value).
var preferredType = map[string]string{
	KindCPU:       "cpu",
	KindHeap:      "inuse_space",
	KindGoroutine: "goroutine",
	KindMutex:     "delay",
	KindBlock:     "delay",
}

// valueIndex picks which of the profile's value columns a kind folds.
func (p *rawProfile) valueIndex(kind string) (idx int, unit string) {
	idx = len(p.sampleTypes) - 1
	want := preferredType[kind]
	for i, vt := range p.sampleTypes {
		if p.str(vt[0]) == want {
			idx = i
			break
		}
	}
	if idx >= 0 && idx < len(p.sampleTypes) {
		unit = p.str(p.sampleTypes[idx][1])
	}
	return idx, unit
}

func (p *rawProfile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Summarize folds raw pprof bytes (as written by runtime/pprof, gzip or
// plain) into a top-N per-function summary. Self is the value attributed
// to samples whose leaf frame is the function; Cum counts every sample
// the function appears anywhere in (deduplicated per sample, so
// recursion doesn't double-count). The caller stamps Start/End — the
// profile data itself only knows its duration.
func Summarize(data []byte, kind string, topN int) (Summary, error) {
	p, err := parsePprof(data)
	if err != nil {
		return Summary{}, err
	}
	if len(p.sampleTypes) == 0 {
		return Summary{}, fmt.Errorf("profile: %s profile has no sample types", kind)
	}
	vi, unit := p.valueIndex(kind)

	type agg struct{ self, cum int64 }
	byFunc := make(map[string]*agg)
	get := func(name string) *agg {
		a, ok := byFunc[name]
		if !ok {
			a = &agg{}
			byFunc[name] = a
		}
		return a
	}
	var total, samples int64
	seen := make(map[string]bool)
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		v := s.values[vi]
		if v == 0 {
			continue
		}
		// The runtime writes no negative value, and a sum past int64
		// would make the shares meaningless.
		if v < 0 || v > math.MaxInt64-total {
			return Summary{}, errMalformed
		}
		total += v
		samples++
		clear(seen)
		attributedSelf := false
		for i, locID := range s.locs {
			for j, fid := range p.locFuncs[locID] {
				name := p.funcName(fid)
				if name == "" {
					continue
				}
				a := get(name)
				if i == 0 && j == 0 {
					a.self += v
					attributedSelf = true
				}
				if !seen[name] {
					seen[name] = true
					a.cum += v
				}
			}
		}
		if !attributedSelf {
			// Unsymbolized leaf: keep the total and self sums consistent.
			a := get("<unknown>")
			a.self += v
			if !seen["<unknown>"] {
				a.cum += v
			}
		}
	}

	top := make([]FuncStat, 0, len(byFunc))
	for name, a := range byFunc {
		top = append(top, FuncStat{Name: name, Self: a.self, Cum: a.cum})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].Self != top[j].Self {
			return top[i].Self > top[j].Self
		}
		if top[i].Cum != top[j].Cum {
			return top[i].Cum > top[j].Cum
		}
		return top[i].Name < top[j].Name
	})
	if topN > 0 && len(top) > topN {
		top = top[:topN]
	}
	if total > 0 {
		for i := range top {
			top[i].SelfShare = float64(top[i].Self) / float64(total)
			top[i].CumShare = float64(top[i].Cum) / float64(total)
		}
	}
	return Summary{
		Kind:       kind,
		Unit:       unit,
		Total:      total,
		Samples:    samples,
		DurationNS: p.durationNS,
		Top:        top,
	}, nil
}
