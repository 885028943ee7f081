package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gallery/internal/uuid"
)

// The paper stores evaluation metrics as structured blobs "with the basic
// format of "<metric>:<value>" pairs" (§3.3.3). This file implements that
// textual format so framework-agnostic clients can ship their evaluation
// output verbatim; the registry flattens parsed pairs into queryable rows.

// ParseMetricsBlob decodes a "<metric>:<value>" blob. Pairs are separated
// by newlines or commas; blank entries and whitespace are tolerated. NaN and
// infinite values are refused (strconv would read "NaN" and "Inf").
func ParseMetricsBlob(blob []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	entries := strings.FieldsFunc(string(blob), func(r rune) bool {
		return r == '\n' || r == ','
	})
	for _, e := range entries {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		name, val, ok := strings.Cut(e, ":")
		if !ok {
			return nil, fmt.Errorf("%w: metrics blob entry %q is not <metric>:<value>", ErrBadSpec, e)
		}
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("%w: metrics blob entry %q has empty metric name", ErrBadSpec, e)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("%w: metrics blob entry %q: %v", ErrBadSpec, e, err)
		}
		if err := checkMetricValue(name, f); err != nil {
			return nil, err
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("%w: metrics blob repeats metric %q", ErrBadSpec, name)
		}
		out[name] = f
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: empty metrics blob", ErrBadSpec)
	}
	return out, nil
}

// FormatMetricsBlob renders values in the blob format, sorted by name for
// stable output.
func FormatMetricsBlob(values map[string]float64) []byte {
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s:%s\n", n, strconv.FormatFloat(values[n], 'g', -1, 64))
	}
	return []byte(b.String())
}

// InsertMetricsBlob parses a "<metric>:<value>" blob and records every
// pair for the instance.
func (g *Registry) InsertMetricsBlob(instanceID uuid.UUID, scope Scope, blob []byte) error {
	return g.InsertMetricsBlobCtx(context.Background(), instanceID, scope, blob)
}

// InsertMetricsBlobCtx is InsertMetricsBlob with trace attribution; the
// pairs land atomically (see InsertMetricsCtx).
func (g *Registry) InsertMetricsBlobCtx(ctx context.Context, instanceID uuid.UUID, scope Scope, blob []byte) error {
	values, err := ParseMetricsBlob(blob)
	if err != nil {
		return err
	}
	return g.InsertMetricsCtx(ctx, instanceID, scope, values)
}
