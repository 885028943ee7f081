package profile

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// --- hand-built pprof encoder, just enough for deterministic parser tests ---

func appendVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func appendTag(b []byte, field, wire int) []byte {
	return appendVarint(b, uint64(field<<3|wire))
}

func appendBytesField(b []byte, field int, payload []byte) []byte {
	b = appendTag(b, field, 2)
	b = appendVarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func appendVarintField(b []byte, field int, v uint64) []byte {
	b = appendTag(b, field, 0)
	return appendVarint(b, v)
}

func appendPacked(b []byte, field int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = appendVarint(p, v)
	}
	return appendBytesField(b, field, p)
}

// testProfile encodes:
//
//	strings: 0:"" 1:"samples" 2:"count" 3:"cpu" 4:"nanoseconds" 5:"fA" 6:"fB" 7:"fC"
//	functions: 1=fA 2=fB 3=fC
//	locations: 1=[fA]  2=[fB,fC] (fB inlined into fC)  3=[fC]
//	samples: [1,3]=100  [2,3]=50  [1,1]=25 (recursion)
//
// With the "cpu" column selected: fA self=125 cum=125, fB self=50
// cum=50, fC self=0 cum=150, total=175.
func testProfile(packed bool) []byte {
	var b []byte

	vt := func(typ, unit uint64) []byte {
		var m []byte
		m = appendVarintField(m, 1, typ)
		m = appendVarintField(m, 2, unit)
		return m
	}
	b = appendBytesField(b, 1, vt(1, 2)) // samples/count
	b = appendBytesField(b, 1, vt(3, 4)) // cpu/nanoseconds

	sample := func(locs []uint64, count, v uint64) []byte {
		var m []byte
		if packed {
			m = appendPacked(m, 1, locs...)
			m = appendPacked(m, 2, count, v)
		} else {
			for _, l := range locs {
				m = appendVarintField(m, 1, l)
			}
			m = appendVarintField(m, 2, count)
			m = appendVarintField(m, 2, v)
		}
		return m
	}
	b = appendBytesField(b, 2, sample([]uint64{1, 3}, 1, 100))
	b = appendBytesField(b, 2, sample([]uint64{2, 3}, 1, 50))
	b = appendBytesField(b, 2, sample([]uint64{1, 1}, 1, 25))

	line := func(fid uint64) []byte {
		var m []byte
		m = appendVarintField(m, 1, fid)
		return m
	}
	loc := func(id uint64, fids ...uint64) []byte {
		var m []byte
		m = appendVarintField(m, 1, id)
		for _, fid := range fids {
			m = appendBytesField(m, 4, line(fid))
		}
		return m
	}
	b = appendBytesField(b, 4, loc(1, 1))
	b = appendBytesField(b, 4, loc(2, 2, 3))
	b = appendBytesField(b, 4, loc(3, 3))

	fn := func(id, name uint64) []byte {
		var m []byte
		m = appendVarintField(m, 1, id)
		m = appendVarintField(m, 2, name)
		return m
	}
	b = appendBytesField(b, 5, fn(1, 5))
	b = appendBytesField(b, 5, fn(2, 6))
	b = appendBytesField(b, 5, fn(3, 7))

	// String table last, like the runtime's encoder: name resolution must
	// be deferred.
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds", "fA", "fB", "fC"} {
		b = appendBytesField(b, 6, []byte(s))
	}
	return b
}

func statOf(t *testing.T, s Summary, name string) FuncStat {
	t.Helper()
	for _, fn := range s.Top {
		if fn.Name == name {
			return fn
		}
	}
	t.Fatalf("function %q not in summary top %v", name, s.Top)
	return FuncStat{}
}

func TestSummarizeHandEncoded(t *testing.T) {
	for _, packed := range []bool{true, false} {
		s, err := Summarize(testProfile(packed), KindCPU, 10)
		if err != nil {
			t.Fatalf("packed=%v: %v", packed, err)
		}
		if s.Total != 175 || s.Samples != 3 {
			t.Fatalf("packed=%v: total=%d samples=%d, want 175/3", packed, s.Total, s.Samples)
		}
		if s.Unit != "nanoseconds" {
			t.Fatalf("unit = %q, want nanoseconds", s.Unit)
		}
		fa, fb, fc := statOf(t, s, "fA"), statOf(t, s, "fB"), statOf(t, s, "fC")
		if fa.Self != 125 || fa.Cum != 125 {
			t.Fatalf("fA self=%d cum=%d, want 125/125 (recursion must not double-count cum)", fa.Self, fa.Cum)
		}
		if fb.Self != 50 || fb.Cum != 50 {
			t.Fatalf("fB self=%d cum=%d, want 50/50 (inline leaf takes self)", fb.Self, fb.Cum)
		}
		if fc.Self != 0 || fc.Cum != 150 {
			t.Fatalf("fC self=%d cum=%d, want 0/150", fc.Self, fc.Cum)
		}
		// Ranked by self: fA, fB, fC.
		if s.Top[0].Name != "fA" || s.Top[1].Name != "fB" || s.Top[2].Name != "fC" {
			t.Fatalf("rank order = %v", s.Top)
		}
		if got := fa.SelfShare; got < 0.71 || got > 0.72 {
			t.Fatalf("fA self share = %v, want 125/175", got)
		}
	}
}

func TestSummarizeTopNBound(t *testing.T) {
	s, err := Summarize(testProfile(true), KindCPU, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Top) != 1 || s.Top[0].Name != "fA" {
		t.Fatalf("topN=1 kept %v", s.Top)
	}
	if s.Total != 175 {
		t.Fatalf("truncation must not change Total, got %d", s.Total)
	}
}

func TestSummarizeMalformed(t *testing.T) {
	for _, raw := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // varint overflow tag
		{0x12, 0x05, 0x01},             // length past end
		{0x1f, 0x8b, 0x00, 0x00},       // gzip magic, garbage body
		appendTag(nil, 1, 7),           // bad wire type
		appendVarintField(nil, 99, 42), // unknown field only: no sample types
	} {
		if _, err := Summarize(raw, KindCPU, 5); err == nil {
			t.Fatalf("Summarize(%x) succeeded, want error", raw)
		}
	}
}

// spinForProfile burns CPU in a recognizably named frame.
//
//go:noinline
func spinForProfile(until time.Time) float64 {
	x := 1.0001
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x *= 1.0000001
		}
	}
	return x
}

func TestSummarizeLiveCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	spinForProfile(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()

	s, err := Summarize(buf.Bytes(), KindCPU, 25)
	if err != nil {
		t.Fatal(err)
	}
	if s.Samples == 0 {
		t.Fatal("live profile had zero samples despite a 300ms busy loop")
	}
	var found bool
	for _, fn := range s.Top {
		if strings.Contains(fn.Name, "spinForProfile") {
			found = true
			if fn.Self == 0 {
				t.Fatalf("spin function has zero self time: %+v", fn)
			}
		}
	}
	if !found {
		t.Fatalf("spin function absent from top: %v", s.Top)
	}
}

func TestSummarizeLiveSnapshots(t *testing.T) {
	hold := make([][]byte, 0, 8)
	for i := 0; i < 8; i++ {
		hold = append(hold, make([]byte, 1<<20))
	}
	defer func() { _ = hold }()
	for kind, name := range lookupNames {
		lp := pprof.Lookup(name)
		if lp == nil {
			t.Fatalf("no %s profile", name)
		}
		var buf bytes.Buffer
		if err := lp.WriteTo(&buf, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, err := Summarize(buf.Bytes(), kind, 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Kind != kind {
			t.Fatalf("kind = %q, want %q", s.Kind, kind)
		}
	}
}

// FuzzSummarize feeds the pprof walker arbitrary protobuf bytes. The
// seeds under testdata/fuzz/FuzzSummarize are runtime/pprof CPU, heap and
// goroutine profiles with their gzip framing removed (so mutations reach
// the protobuf), plus a truncated profile, an overlong varint and wrong
// wire types. Summarize must never panic, and whatever it accepts must be
// a well-formed summary: at most topN functions, ranked by Self, every
// share a fraction, and the Self values summing to no more than Total.
func FuzzSummarize(f *testing.F) {
	f.Add(testProfile(true), KindCPU, 10)
	f.Add(testProfile(false), KindCPU, 2)
	f.Fuzz(func(t *testing.T, data []byte, kind string, topN int) {
		s, err := Summarize(data, kind, topN)
		if err != nil {
			return
		}
		if topN > 0 && len(s.Top) > topN {
			t.Fatalf("%d functions kept, topN %d", len(s.Top), topN)
		}
		var self int64
		for i, fn := range s.Top {
			if i > 0 && fn.Self > s.Top[i-1].Self {
				t.Fatalf("Top not ranked by Self: %+v", s.Top)
			}
			for _, share := range []float64{fn.SelfShare, fn.CumShare} {
				if !(share >= 0 && share <= 1) {
					t.Fatalf("%s: share %v outside [0, 1] (total %d): %+v", fn.Name, share, s.Total, fn)
				}
			}
			self += fn.Self
			if fn.Self < 0 || self > s.Total {
				t.Fatalf("Self values sum past Total %d: %+v", s.Total, s.Top)
			}
		}
	})
}
