package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"jrpm/internal/codec"
	"jrpm/internal/serve"
)

// Handler exposes the router over HTTP:
//
//	POST /run       submit a serve.JobSpec and run it to completion through
//	                the fleet. Responds with the canonical codec result
//	                bytes (application/octet-stream) plus X-Jrpm-Cache
//	                (hit|miss), X-Jrpm-Coalesced and X-Jrpm-Replica headers;
//	                ?format=json returns a JSON summary instead.
//	GET  /replicas  shard list with each shard's last dispatch and result
//	                times and its last error
//	GET  /healthz   liveness      GET /readyz  readiness (503 when the
//	                router has no replica)
//	GET  /metrics   Prometheus text exposition (jrpm_fleet_*)
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", rt.handleRun)
	mux.HandleFunc("GET /replicas", rt.handleReplicas)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", rt.handleReady)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		rt.reg.WritePrometheus(w)
	})
	return mux
}

type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// runSummary is the JSON rendering of a routed result for ?format=json.
type runSummary struct {
	Name      string  `json:"name"`
	Key       string  `json:"key"`
	CacheHit  bool    `json:"cache_hit"`
	Coalesced bool    `json:"coalesced"`
	Replica   string  `json:"replica,omitempty"`
	SeqCycles int64   `json:"seq_cycles"`
	TLSCycles int64   `json:"tls_cycles,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`
	WireBytes int     `json:"wire_bytes"`
}

func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	var spec serve.JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "bad job spec: " + err.Error()})
		return
	}
	out, err := rt.Do(r.Context(), spec)
	if err != nil {
		switch {
		case errors.Is(err, ErrNoReplicas):
			w.Header().Set("Retry-After", "5")
			writeJSON(w, http.StatusServiceUnavailable, httpError{Error: err.Error()})
		case errors.Is(err, ErrJobFailed):
			writeJSON(w, http.StatusUnprocessableEntity, httpError{Error: err.Error()})
		default:
			writeJSON(w, http.StatusBadRequest, httpError{Error: err.Error()})
		}
		return
	}
	cacheHeader := "miss"
	if out.CacheHit {
		cacheHeader = "hit"
	}
	w.Header().Set("X-Jrpm-Cache", cacheHeader)
	if out.Coalesced {
		w.Header().Set("X-Jrpm-Coalesced", "true")
	}
	if out.Replica != "" {
		w.Header().Set("X-Jrpm-Replica", out.Replica)
	}
	if r.URL.Query().Get("format") == "json" {
		res, derr := codec.DecodeResult(out.Wire)
		if derr != nil {
			writeJSON(w, http.StatusInternalServerError, httpError{Error: "decode result: " + derr.Error()})
			return
		}
		writeJSON(w, http.StatusOK, runSummary{
			Name:      res.Name,
			Key:       out.Key,
			CacheHit:  out.CacheHit,
			Coalesced: out.Coalesced,
			Replica:   out.Replica,
			SeqCycles: res.Seq.Cycles,
			TLSCycles: res.TLS.Cycles,
			Speedup:   res.SpeedupActual(),
			WireBytes: len(out.Wire),
		})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(out.Wire)
}

// replicaView is one shard's state for GET /replicas: its last dispatch
// and result times (absent until the shard has been touched) and the error
// its last attempt returned.
type replicaView struct {
	Index        int        `json:"index"`
	Name         string     `json:"name"`
	LastDispatch *time.Time `json:"last_dispatch,omitempty"`
	LastResult   *time.Time `json:"last_result,omitempty"`
	LastError    string     `json:"last_error,omitempty"`
}

// replicaViews snapshots every shard's health.
func (rt *Router) replicaViews() []replicaView {
	views := make([]replicaView, len(rt.backends))
	for i, b := range rt.backends {
		v := replicaView{Index: i, Name: b.Name()}
		dispatch, result, lastErr := rt.shards[i].snapshot()
		if !dispatch.IsZero() {
			v.LastDispatch = &dispatch
		}
		if !result.IsZero() {
			v.LastResult = &result
		}
		v.LastError = lastErr
		views[i] = v
	}
	return views
}

func (rt *Router) handleReplicas(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.replicaViews())
}

// handleReady reports fleet-level readiness: 200 whenever the router has a
// replica to dispatch to, 503 for an empty fleet. A down replica fails its
// attempt at once and the dispatch fails over, so one shard's health never
// makes the fleet unready.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	if len(rt.backends) == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no replicas"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ready",
		"replicas": len(rt.backends),
	})
}
