package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"viptree/internal/engine"
	"viptree/internal/geom"
	"viptree/internal/model"
)

// This file is the node's HTTP surface:
//
//	POST /query/{venue}   execute a batch of queries (JSON in, JSON out)
//	GET  /healthz         process liveness (200 while the process serves)
//	GET  /healthz/{venue} one venue's health (200 serving/degraded, 503 else)
//	GET  /readyz          readiness: 200 when every venue serves and the
//	                      node is not draining
//	GET  /statsz          per-venue counters + node totals
//
// The query wire format mirrors engine.Query field by field; kinds are the
// lowercase names ("distance", "path", "knn", "range", "insert", "delete",
// "move"). Responses echo the venue's swap epoch, which is how a client
// observes a hot swap.

// WireLocation is a model.Location on the wire.
type WireLocation struct {
	Partition int     `json:"partition"`
	X         float64 `json:"x"`
	Y         float64 `json:"y"`
	Floor     int     `json:"floor,omitempty"`
}

func (w WireLocation) location() model.Location {
	return model.Location{
		Partition: model.PartitionID(w.Partition),
		Point:     geom.Point{X: w.X, Y: w.Y, Floor: w.Floor},
	}
}

// WireQuery is one query of a request batch.
type WireQuery struct {
	Kind     string       `json:"kind"`
	S        WireLocation `json:"s"`
	T        WireLocation `json:"t,omitempty"`
	K        int          `json:"k,omitempty"`
	Radius   float64      `json:"radius,omitempty"`
	ObjectID int          `json:"object_id,omitempty"`
}

var wireKinds = map[string]engine.Kind{
	"distance": engine.KindDistance,
	"path":     engine.KindPath,
	"knn":      engine.KindKNN,
	"range":    engine.KindRange,
	"insert":   engine.KindInsert,
	"delete":   engine.KindDelete,
	"move":     engine.KindMove,
}

// WireObject is one kNN/range result object.
type WireObject struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

// WireResult is one query's outcome.
type WireResult struct {
	Dist     float64      `json:"dist,omitempty"`
	Doors    []int        `json:"doors,omitempty"`
	Objects  []WireObject `json:"objects,omitempty"`
	ObjectID int          `json:"object_id,omitempty"`
	// Err and ErrKind report a failed query: ErrKind is one of "invalid"
	// (engine.ErrInvalidQuery: a partition outside the venue, k < 1, a NaN
	// or negative radius), "canceled", "panic", "rejected" (other typed
	// engine refusals, e.g. updates while the WAL is degraded).
	Err     string `json:"err,omitempty"`
	ErrKind string `json:"err_kind,omitempty"`
}

// QueryRequest is the POST /query/{venue} body.
type QueryRequest struct {
	Queries []WireQuery `json:"queries"`
	// TimeoutMS overrides the node's default request deadline when positive
	// (still capped by the default — a client cannot extend it).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// QueryResponse is the POST /query/{venue} body on success (HTTP 200) and
// on per-query failure (Results populated): HTTP 500 when a query panicked,
// else HTTP 400 when a query was invalid.
type QueryResponse struct {
	Venue   string       `json:"venue"`
	Epoch   uint64       `json:"epoch"`
	Results []WireResult `json:"results"`
}

// errorBody is the JSON error envelope of non-200 responses.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the node's HTTP handler.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query/{venue}", n.handleQuery)
	mux.HandleFunc("GET /healthz", n.handleHealthz)
	mux.HandleFunc("GET /healthz/{venue}", n.handleVenueHealthz)
	mux.HandleFunc("GET /readyz", n.handleReadyz)
	mux.HandleFunc("GET /statsz", n.handleStatsz)
	return recoverMiddleware(mux)
}

// recoverMiddleware is the last-resort panic barrier: a handler bug becomes
// a 500, not a dead process. (Query panics never reach it — the engine
// isolates those per query.)
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				writeJSON(w, http.StatusInternalServerError, errorBody{Error: fmt.Sprintf("internal error: %v", v)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (n *Node) handleQuery(w http.ResponseWriter, r *http.Request) {
	v, ok := n.Venue(r.PathValue("venue"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown venue"})
		return
	}
	if !n.admit() {
		v.shed.Add(1)
		n.shedTotal.Add(1)
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "node at capacity, retry with backoff"})
		return
	}
	defer n.release()

	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decoding request: " + err.Error()})
		return
	}
	queries := make([]engine.Query, len(req.Queries))
	for i, wq := range req.Queries {
		kind, ok := wireKinds[wq.Kind]
		if !ok {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("query %d: unknown kind %q", i, wq.Kind)})
			return
		}
		queries[i] = engine.Query{
			Kind: kind, S: wq.S.location(), T: wq.T.location(),
			K: wq.K, Radius: wq.Radius, ObjectID: wq.ObjectID,
		}
	}

	timeout := n.opts.RequestTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	results, epoch, err := v.execute(ctx, queries)
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}

	resp := QueryResponse{Venue: v.Name(), Epoch: epoch, Results: make([]WireResult, len(results))}
	status := http.StatusOK
	for i, res := range results {
		wr := &resp.Results[i]
		wr.Dist = res.Dist
		wr.ObjectID = res.ObjectID
		for _, d := range res.Doors {
			wr.Doors = append(wr.Doors, int(d))
		}
		for _, o := range res.Objects {
			wr.Objects = append(wr.Objects, WireObject{ID: o.ObjectID, Dist: o.Dist})
		}
		if res.Err == nil {
			continue
		}
		wr.Err = res.Err.Error()
		var perr *engine.PanicError
		switch {
		case errors.As(res.Err, &perr):
			wr.ErrKind = "panic"
			status = http.StatusInternalServerError
		case errors.Is(res.Err, engine.ErrInvalidQuery):
			wr.ErrKind = "invalid"
			if status == http.StatusOK {
				status = http.StatusBadRequest
			}
		case errors.Is(res.Err, engine.ErrCanceled):
			wr.ErrKind = "canceled"
		default:
			wr.ErrKind = "rejected"
		}
	}
	writeJSON(w, status, resp)
}

func (n *Node) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": n.Draining()})
}

func (n *Node) handleVenueHealthz(w http.ResponseWriter, r *http.Request) {
	v, ok := n.Venue(r.PathValue("venue"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown venue"})
		return
	}
	h := v.Health()
	status := http.StatusOK
	if !h.Healthy {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (n *Node) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type venueReady struct {
		Venue string `json:"venue"`
		Health
	}
	venues := n.venueList()
	ready := !n.Draining() && len(venues) > 0
	detail := make([]venueReady, 0, len(venues))
	for _, v := range venues {
		h := v.Health()
		if !h.Healthy {
			ready = false
		}
		detail = append(detail, venueReady{Venue: v.Name(), Health: h})
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": ready, "draining": n.Draining(), "venues": detail})
}

func (n *Node) handleStatsz(w http.ResponseWriter, r *http.Request) {
	venues := n.venueList()
	stats := make(map[string]Stats, len(venues))
	for _, v := range venues {
		stats[v.Name()] = v.Stats()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_ms":    n.Uptime().Milliseconds(),
		"max_inflight": n.opts.MaxInflight,
		"shed_total":   n.shedTotal.Load(),
		"draining":     n.Draining(),
		"venues":       stats,
	})
}
