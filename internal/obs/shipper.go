package obs

import (
	"context"
	"sync"
	"time"
)

// Telemetry channels a Shipper reports on.
const (
	ChannelTraces = "traces"
	ChannelAudit  = "audit"
	ChannelHealth = "health"
)

// ChannelRules is the rules engine's trigger queue, which counts what it
// drops in the same family as the shipper.
const ChannelRules = "rules"

// Dropped is telemetry_dropped_total{channel}: what a bounded queue in
// front of a best-effort consumer discarded rather than wait.
func Dropped(reg *Registry) *CounterVec {
	reg.Help("telemetry_dropped_total", "Telemetry shipments discarded unsent because their bounded queue was full or had closed (on the rules channel: rule-engine triggers).")
	return reg.CounterVec("telemetry_dropped_total", []string{"channel"}, 0)
}

const (
	// shipQueue bounds shipments waiting for the worker: at one kept trace
	// per slow or failed request that is a burst of 64 before the first
	// drop, and a health window or a hot swap adds one each.
	shipQueue = 64
	// shipTimeout bounds one send, so a peer that accepts and never
	// answers costs the queue five seconds, not the worker.
	shipTimeout = 5 * time.Second
)

// Shipper is the one outbound path for telemetry nobody waits for: a
// gateway's kept traces, health windows and hot-swap audit reports all
// ride its single bounded queue to one worker. Export
// never blocks — a full queue, or a closed Shipper, drops the shipment —
// and the worker calls each send once. What is lost is counted per channel in the
// registry the Shipper was built over, so the observability stack reports
// on itself.
type Shipper struct {
	dropped *CounterVec // telemetry_dropped_total{channel}
	failed  *CounterVec // telemetry_failed_total{channel}
	ch      chan shipment
	done    chan struct{} // closed when the worker has exited

	// mu orders Export against Close (nothing is queued once ch is
	// closed) and guards queued, which idle signals reaching zero.
	mu     sync.Mutex
	idle   *sync.Cond
	queued int
	closed bool
}

type shipment struct {
	channel string
	send    func(context.Context) error
}

// NewShipper starts a Shipper whose loss counters live in reg. The known
// channels are registered up front, so a scrape shows them at zero rather
// than absent.
func NewShipper(reg *Registry) *Shipper {
	reg.Help("telemetry_failed_total", "Telemetry shipments whose one send attempt failed (network error or non-2xx).")
	s := &Shipper{
		dropped: Dropped(reg),
		failed:  reg.CounterVec("telemetry_failed_total", []string{"channel"}, 0),
		ch:      make(chan shipment, shipQueue),
		done:    make(chan struct{}),
	}
	s.idle = sync.NewCond(&s.mu)
	for _, c := range []string{ChannelTraces, ChannelAudit, ChannelHealth} {
		s.dropped.With(c)
		s.failed.With(c)
	}
	go s.run()
	return s
}

// Export queues one shipment on channel. send runs later on the worker,
// under a context that carries a deadline and no span: a traced send
// would itself be kept and exported, forever. A shipment that finds the
// queue full, or the Shipper closed, is dropped and counted.
func (s *Shipper) Export(channel string, send func(context.Context) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		select {
		case s.ch <- shipment{channel, send}:
			s.queued++
			return
		default:
		}
	}
	s.dropped.With(channel).Inc()
}

// Flush blocks until everything queued has been sent (successfully or
// not). Tests use it; the serving path never does.
func (s *Shipper) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.queued > 0 {
		s.idle.Wait()
	}
}

// Close sends what is queued and stops the worker. Safe to call twice.
func (s *Shipper) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
	s.mu.Unlock()
	<-s.done
}

func (s *Shipper) run() {
	defer close(s.done)
	for sh := range s.ch {
		ctx, cancel := context.WithTimeout(context.Background(), shipTimeout)
		err := sh.send(ctx)
		cancel()
		if err != nil {
			s.failed.With(sh.channel).Inc()
		}
		s.mu.Lock()
		if s.queued--; s.queued == 0 {
			s.idle.Broadcast()
		}
		s.mu.Unlock()
	}
}
