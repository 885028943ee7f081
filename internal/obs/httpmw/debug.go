package httpmw

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gallery/internal/api"
	"gallery/internal/obs"
	obslog "gallery/internal/obs/log"
	"gallery/internal/obs/trace"
)

// RegisterDebug mounts the live-state endpoints both daemons serve with
// one contract, through handle (a mux's HandleFunc, or a wrapper that
// records the pattern):
//
//	GET /v1/debug/metrics          JSON snapshot of reg
//	GET /v1/debug/metrics/prom     reg in Prometheus text format 0.0.4
//	GET /v1/debug/traces           tracer's completed traces, newest first; ?limit= (default 50, 0 = all)
//	GET /v1/debug/traces/{id}      one trace as a span tree with per-span self time
//	GET /v1/debug/logs             the log ring; ?level=, ?since= (RFC3339 or a
//	                               relative duration like 5m), ?after= (a previous
//	                               response's next_seq, for follow mode), ?limit=
//
// The trace routes are mounted only with a tracer. The log route is
// always mounted and answers 404 without a ring. Every answer carries Cache-Control: no-store, because debug state
// is live state and a cached snapshot is a wrong one.
func RegisterDebug(handle func(string, func(http.ResponseWriter, *http.Request)), reg *obs.Registry, tracer *trace.Tracer, logs *obslog.Ring) {
	get := func(path string, h func(http.ResponseWriter, *http.Request)) {
		handle("GET "+path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Cache-Control", "no-store")
			h(w, r)
		})
	}
	get("/v1/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, reg.Snapshot())
	})
	get("/v1/debug/metrics/prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		_ = reg.WriteProm(w)
	})
	if tracer != nil {
		get("/v1/debug/traces", func(w http.ResponseWriter, r *http.Request) {
			limit := 50
			if q := r.URL.Query().Get("limit"); q != "" {
				n, err := strconv.Atoi(q)
				if err != nil || n < 0 {
					WriteError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", q))
					return
				}
				limit = n
			}
			st := tracer.Store()
			WriteJSON(w, http.StatusOK, struct {
				Stats  trace.Stats     `json:"stats"`
				Traces []trace.Summary `json:"traces"`
			}{st.Stats(), st.Summaries(limit)})
		})
		get("/v1/debug/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
			if d, ok := tracer.Store().Get(r.PathValue("id")); ok {
				WriteJSON(w, http.StatusOK, d)
			} else {
				WriteError(w, http.StatusNotFound, fmt.Errorf("trace %s not in buffer", r.PathValue("id")))
			}
		})
	}
	get("/v1/debug/logs", func(w http.ResponseWriter, r *http.Request) {
		if logs == nil {
			WriteError(w, http.StatusNotFound, errors.New("log ring not enabled"))
		} else if f, err := logFilter(r); err != nil {
			WriteError(w, http.StatusBadRequest, err)
		} else {
			entries, next := logs.Entries(f)
			WriteJSON(w, http.StatusOK, api.DebugLogsResponse{Entries: entries, NextSeq: next})
		}
	})
}

// logFilter parses GET /v1/debug/logs's query parameters.
func logFilter(r *http.Request) (obslog.Filter, error) {
	qp := r.URL.Query()
	f := obslog.Filter{MinLevel: obslog.ParseLevel(qp.Get("level"))}
	var err error
	if f.Since, err = ParseSince(qp.Get("since")); err != nil {
		return f, err
	}
	if v := qp.Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return f, fmt.Errorf("bad after cursor %q", v)
		}
		f.AfterSeq, f.HasAfterSeq = n, true
	}
	if v := qp.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return f, fmt.Errorf("bad limit %q", v)
		}
		f.Limit = n
	}
	return f, nil
}

// ParseSince reads a query time given as an RFC3339 instant or as a
// duration ago ("15m"); empty is the zero time.
func ParseSince(v string) (time.Time, error) {
	if v == "" {
		return time.Time{}, nil
	}
	if d, err := time.ParseDuration(v); err == nil {
		return time.Now().Add(-d), nil
	}
	t, err := time.Parse(time.RFC3339, v)
	if err != nil {
		return t, fmt.Errorf("bad time %q (want RFC3339 or a duration like 15m)", v)
	}
	return t, nil
}

// jsonBufPool amortizes encode buffers across responses: each is staged
// in a pooled buffer so Content-Length can be set and the write happens in
// one syscall.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// WriteJSON writes v as a JSON response with status: the wire codec's
// bytes for the types api.Encode knows, encoding/json's for the rest.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer jsonBufPool.Put(buf)
	if err := api.Encode(buf, v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	WriteEncoded(w, status, buf.Bytes())
}

// WriteEncoded answers with status and body, an encoded JSON value.
func WriteEncoded(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// WriteError answers with status and err in the api.Error body both
// daemons fail with.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, api.Error{Error: err.Error()})
}
