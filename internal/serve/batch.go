package serve

import (
	"context"
	"sync"

	"gallery/internal/forecast"
)

// batcher groups concurrent predictions on one model into vectorized
// passes. Each executor pulls one queued request, drains whatever else is
// already waiting (up to MaxBatch), loads the
// served-model pointer once, and answers the whole group with a single
// forecast.ForecastAll call — amortizing the pointer load and, for
// learners implementing forecast.BatchForecaster, the per-call feature
// buffers. Batching is drain-only, hence adaptive: under light load
// batches have size 1 and add no latency, under heavy load the queue is
// never empty and batches form by themselves (the same dynamics as WAL
// group commit).
type batcher struct {
	e    *entry
	g    *Gateway
	reqs chan *batchReq
	quit chan struct{}  // closed on evict; gateway done covers Close
	wg   sync.WaitGroup // the executors
}

type batchReq struct {
	fctx forecast.Context
	// val and srv are written by the executor before done is signaled.
	val float64
	srv *served
	// done carries one completion signal per use (buffered, so the
	// executor never blocks), which lets requests be pooled — a closed
	// channel could not be reused.
	done chan struct{}
}

// reqPool recycles requests (and their completion channels) so the batched
// path does zero allocations per prediction. A request abandoned on
// shutdown is NOT returned to the pool: the queue still holds it.
var reqPool = sync.Pool{
	New: func() any { return &batchReq{done: make(chan struct{}, 1)} },
}

func (r *batchReq) release() {
	r.fctx = forecast.Context{} // drop caller buffers so they can be GC'd
	r.srv = nil
	reqPool.Put(r)
}

// stop ends the executors (used on eviction); in-flight and late requests
// fall back to direct computation in predict.
func (b *batcher) stop() { close(b.quit) }

func newBatcher(e *entry, g *Gateway) *batcher {
	b := &batcher{
		e:    e,
		g:    g,
		reqs: make(chan *batchReq, g.opts.MaxBatch*g.opts.BatchWorkers),
		quit: make(chan struct{}),
	}
	b.wg.Add(g.opts.BatchWorkers)
	for i := 0; i < g.opts.BatchWorkers; i++ {
		go b.run()
	}
	return b
}

// predict enqueues one request and waits for its batch to execute. If the
// batcher is shutting down (eviction or gateway close) it falls back to a
// direct computation, so no request is ever dropped.
func (b *batcher) predict(fctx forecast.Context) (float64, *served, error) {
	r := reqPool.Get().(*batchReq)
	r.fctx = fctx
	select {
	case b.reqs <- r:
	default:
		// Queue full — compute directly rather than block; backpressure
		// degrades to unbatched, never to unavailable.
		r.release()
		return b.direct(fctx)
	}
	select {
	case <-r.done:
		val, srv := r.val, r.srv
		r.release()
		return val, srv, nil
	case <-b.quit:
	case <-b.g.done:
	}
	// The executors are going. One may already have drained r and be
	// reading fctx, which the caller takes back when predict returns (see
	// PredictCtx), so wait for them to exit — each does at the top of its
	// loop. After that r is either answered or sits in the queue forever.
	b.wg.Wait()
	select {
	case <-r.done: // an executor got to it after all
		val, srv := r.val, r.srv
		r.release()
		return val, srv, nil
	default:
		return b.direct(fctx) // r abandoned: the queue still holds it
	}
}

func (b *batcher) direct(fctx forecast.Context) (float64, *served, error) {
	srv := b.e.cur.Load()
	if srv == nil {
		return 0, nil, ErrClosed
	}
	return srv.learner.Forecast(fctx), srv, nil
}

// run is one executor goroutine.
func (b *batcher) run() {
	defer b.wg.Done()
	maxBatch := b.g.opts.MaxBatch
	batch := make([]*batchReq, 0, maxBatch)
	ctxs := make([]forecast.Context, 0, maxBatch)
	outs := make([]float64, maxBatch)
	for {
		var first *batchReq
		select {
		case first = <-b.reqs:
		case <-b.quit:
			return
		case <-b.g.done:
			return
		}
		batch = append(batch[:0], first)
	drain:
		for len(batch) < maxBatch {
			select {
			case r := <-b.reqs:
				batch = append(batch, r)
			default:
				break drain
			}
		}
		srv := b.e.cur.Load()
		ctxs = ctxs[:0]
		for _, r := range batch {
			ctxs = append(ctxs, r.fctx)
		}
		// A drained batch mixes requests from many traces, so it cannot be
		// a child of any one of them; when tracing is on it gets a trace of
		// its own recording the batch it amortized. Nil tracer or sampled-
		// out → nil span → no cost.
		_, bspan := b.g.tracer.StartLocal(context.Background(), "serve.batch_drain")
		if bspan != nil {
			bspan.Annotate("model", b.e.modelID)
			bspan.AnnotateInt("batch_size", int64(len(batch)))
		}
		forecast.ForecastAll(srv.learner, ctxs, outs[:len(batch)])
		bspan.End()
		b.g.mx.batchSize.Observe(float64(len(batch)))
		for i, r := range batch {
			r.val = outs[i]
			r.srv = srv
			r.done <- struct{}{}
		}
	}
}
