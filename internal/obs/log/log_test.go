package obslog

import (
	"context"
	"log/slog"
	"testing"

	"gallery/internal/obs/trace"
)

func TestRingBoundedAndOrdered(t *testing.T) {
	r := NewRing(4)
	h := NewHandler(r, slog.LevelDebug, nil)
	logger := slog.New(h)
	for i := 0; i < 10; i++ {
		logger.Info("line", "i", i)
	}
	if r.Len() != 4 {
		t.Fatalf("ring retained %d, want 4", r.Len())
	}
	entries, next := r.Entries(Filter{MinLevel: slog.LevelDebug})
	if len(entries) != 4 {
		t.Fatalf("got %d entries, want 4", len(entries))
	}
	for i, e := range entries {
		if want := uint64(6 + i); e.Seq != want {
			t.Errorf("entry %d seq = %d, want %d (oldest lines evicted)", i, e.Seq, want)
		}
	}
	if next != 9 {
		t.Errorf("next seq = %d, want 9", next)
	}
	// Poll for new lines only.
	logger.Warn("fresh")
	entries, _ = r.Entries(Filter{MinLevel: slog.LevelDebug, AfterSeq: next, HasAfterSeq: true})
	if len(entries) != 1 || entries[0].Msg != "fresh" {
		t.Fatalf("after-seq poll got %+v, want just the fresh line", entries)
	}
}

func TestLevelAndSinceFilters(t *testing.T) {
	r := NewRing(16)
	logger := slog.New(NewHandler(r, slog.LevelDebug, nil))
	logger.Debug("d")
	logger.Info("i")
	logger.Error("e")

	entries, _ := r.Entries(Filter{MinLevel: slog.LevelWarn})
	if len(entries) != 1 || entries[0].Level != "error" {
		t.Fatalf("level filter got %+v, want the error line only", entries)
	}
	all, _ := r.Entries(Filter{MinLevel: slog.LevelDebug})
	if len(all) != 3 {
		t.Fatalf("got %d entries, want 3", len(all))
	}
	cut := all[2].Time
	entries, _ = r.Entries(Filter{MinLevel: slog.LevelDebug, Since: cut})
	for _, e := range entries {
		if e.Time.Before(cut) {
			t.Errorf("since filter leaked entry at %v before %v", e.Time, cut)
		}
	}
}

func TestDisabledLevelAllocatesNothing(t *testing.T) {
	logger := slog.New(NewHandler(NewRing(8), slog.LevelInfo, nil))
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		logger.LogAttrs(ctx, slog.LevelDebug, "disabled")
	})
	if allocs != 0 {
		t.Fatalf("disabled level cost %.1f allocs/op, want 0", allocs)
	}
}

func TestTraceCorrelation(t *testing.T) {
	tr := trace.New(trace.Options{Service: "test", Sampler: mustSampler(t, "always")})
	ctx, span := tr.StartRoot(context.Background(), "op", "")
	defer span.End()

	r := NewRing(8)
	logger := slog.New(NewHandler(r, slog.LevelDebug, nil))

	logger.InfoContext(ctx, "via ctx")

	entries, _ := r.Entries(Filter{MinLevel: slog.LevelDebug})
	if len(entries) != 1 {
		t.Fatalf("got %d entries, want 1", len(entries))
	}
	if got, want := entries[0].TraceID, span.TraceIDString(); got != want {
		t.Errorf("ctx entry trace id = %q, want %q", got, want)
	}
}

func mustSampler(t *testing.T, spec string) trace.Sampler {
	t.Helper()
	s, err := trace.ParseSampler(spec)
	if err != nil {
		t.Fatalf("ParseSampler(%q): %v", spec, err)
	}
	return s
}

func TestTeeAndWithAttrs(t *testing.T) {
	r := NewRing(8)
	sinkRing := NewRing(8)
	downstream := NewHandler(sinkRing, slog.LevelWarn, nil)
	logger := slog.New(NewHandler(r, slog.LevelDebug, downstream)).With("component", "dal")

	logger.Info("cached")
	logger.Error("failed", "err", "boom")

	entries, _ := r.Entries(Filter{MinLevel: slog.LevelDebug})
	if len(entries) != 2 {
		t.Fatalf("primary ring got %d entries, want 2", len(entries))
	}
	if entries[0].Attrs["component"] != "dal" {
		t.Errorf("WithAttrs lost component attr: %+v", entries[0].Attrs)
	}
	if entries[1].Attrs["err"] != "boom" {
		t.Errorf("record attr lost: %+v", entries[1].Attrs)
	}
	teed, _ := sinkRing.Entries(Filter{MinLevel: slog.LevelDebug})
	if len(teed) != 1 || teed[0].Level != "error" {
		t.Fatalf("downstream tee got %+v, want the error line only (its own level gate applies)", teed)
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "WARN": slog.LevelWarn,
		"error": slog.LevelError, "": slog.LevelInfo, "bogus": slog.LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}
