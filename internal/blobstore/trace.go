package blobstore

import (
	"context"

	"gallery/internal/obs/trace"
)

// Ctx variants of the blob operations, adding trace attribution. The
// store's latency model simulates a remote object store; the span carries
// the simulated charge separately (sim_latency) so a trace read on a
// laptop still attributes where S3/HDFS time *would* go in production —
// when Sleep is on, the simulated charge is also real wall time inside
// the span.

// GetCtx is Get with a child span annotated with payload size and the
// latency model's simulated charge.
func (s *Store) GetCtx(ctx context.Context, location string) ([]byte, error) {
	_, span := trace.Start(ctx, "blobstore.get")
	data, err := s.Get(location)
	if span != nil {
		span.AnnotateInt("bytes", int64(len(data)))
		span.AnnotateDuration("sim_latency", s.opts.Latency.cost(len(data)))
	}
	span.EndErr(err)
	return data, err
}

// PutCtx is Put with a child span; the simulated charge covers writing
// every replica, matching what charge records in Stats.
func (s *Store) PutCtx(ctx context.Context, key string, data []byte) (string, error) {
	_, span := trace.Start(ctx, "blobstore.put")
	loc, err := s.Put(key, data)
	if span != nil {
		span.AnnotateInt("bytes", int64(len(data)))
		span.AnnotateDuration("sim_latency", s.opts.Latency.cost(len(data)*s.opts.Replicas))
	}
	span.EndErr(err)
	return loc, err
}
