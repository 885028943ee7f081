package relstore

import (
	"testing"
	"time"
	"unsafe"
)

// TestValueSize pins the cell size a stored row pays per column.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 40 {
		t.Fatalf("Value is %d bytes, want at most 40", n)
	}
}

// TestTimeValueKeepsInstantAndZone: a time value gives back the instant
// and the location (so the offset) it was made from, without the monotonic
// reading, across the whole range time.Time holds.
func TestTimeValueKeepsInstantAndZone(t *testing.T) {
	ist := time.FixedZone("IST", 5*3600+30*60)
	for _, tm := range append([]time.Time{
		time.Date(2019, 6, 1, 12, 0, 0, 5, ist),
		time.Date(2019, 6, 1, 12, 0, 0, 0, time.Local),
		time.Now(),
	}, edgeTimes...) {
		got := Time(tm).Time()
		if !got.Equal(tm) || got.Location() != tm.Location() || got != tm.Round(0) {
			t.Errorf("Time(%v).Time() = %v in %v", tm, got, got.Location())
		}
	}
	if got := (Value{Kind: KindTime}).Time(); !got.Equal(time.Unix(-unixToInternal, 0)) {
		t.Errorf("a bare time value reads as %v", got)
	}
}
