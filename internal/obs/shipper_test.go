package obs

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestShipper(t *testing.T) {
	t.Run("send context has a deadline and shipments keep order", func(t *testing.T) {
		s := NewShipper(NewRegistry())
		defer s.Close()
		var got []int
		for i := 0; i < 5; i++ {
			s.Export(ChannelAudit, func(ctx context.Context) error {
				if d, ok := ctx.Deadline(); !ok || time.Until(d) > shipTimeout {
					t.Errorf("send context deadline = %v, %v", d, ok)
				}
				got = append(got, i) // one worker: no lock needed
				return nil
			})
		}
		s.Flush()
		s.Flush() // nothing queued: returns at once
		if len(got) != 5 || got[0] != 0 || got[4] != 4 {
			t.Fatalf("sent %v, want 0..4 in order", got)
		}
	})

	t.Run("failure is counted on its own channel", func(t *testing.T) {
		reg := NewRegistry()
		s := NewShipper(reg)
		s.Export(ChannelHealth, func(context.Context) error { return errors.New("peer down") })
		s.Export(ChannelTraces, func(context.Context) error { return nil })
		s.Close()
		failed := reg.CounterVec("telemetry_failed_total", []string{"channel"}, 0)
		if failed.Peek(ChannelHealth).Value() != 1 || failed.Peek(ChannelTraces).Value() != 0 || reg.SumCounters("telemetry_dropped") != 0 {
			t.Fatalf("failed health=%d traces=%d dropped=%d", failed.Peek(ChannelHealth).Value(),
				failed.Peek(ChannelTraces).Value(), reg.SumCounters("telemetry_dropped"))
		}
	})

	// A producer that outlives the shipper (a health window cut by
	// shutdown) loses its shipment; the loss must show in the counter.
	t.Run("export after close is counted as dropped", func(t *testing.T) {
		reg := NewRegistry()
		s := NewShipper(reg)
		s.Close()
		s.Export(ChannelHealth, func(context.Context) error { t.Error("sent after Close"); return nil })
		dropped := reg.CounterVec("telemetry_dropped_total", []string{"channel"}, 0)
		if got := dropped.Peek(ChannelHealth).Value(); got != 1 {
			t.Fatalf("telemetry_dropped_total{channel=health} = %d, want 1", got)
		}
	})

	// Close from two goroutines while exporters are still running: every
	// shipment accepted before the close is sent, none after, nothing
	// panics on the closed queue, and both Closes return.
	t.Run("double close racing exports", func(t *testing.T) {
		reg := NewRegistry()
		s := NewShipper(reg)
		var sent atomic.Int64
		var exporters, closers sync.WaitGroup
		stop := make(chan struct{})
		for i := 0; i < 4; i++ {
			exporters.Add(1)
			go func() {
				defer exporters.Done()
				for {
					select {
					case <-stop:
						return
					default:
						s.Export(ChannelTraces, func(context.Context) error { sent.Add(1); return nil })
					}
				}
			}()
		}
		for sent.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		for i := 0; i < 2; i++ {
			closers.Add(1)
			go func() { defer closers.Done(); s.Close() }()
		}
		closers.Wait()
		atClose := sent.Load()
		close(stop)
		exporters.Wait()
		s.Export(ChannelTraces, func(context.Context) error { sent.Add(1); return nil })
		s.Flush()
		if got := sent.Load(); got != atClose {
			t.Fatalf("%d shipments sent after Close returned", got-atClose)
		}
		if reg.SumCounters("telemetry_failed") != 0 {
			t.Fatal("a drained shipment was counted failed")
		}
	})
}
