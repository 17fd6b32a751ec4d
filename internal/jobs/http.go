package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro"
)

// Handler builds the estimation service's HTTP/JSON API on a Go 1.22
// pattern mux:
//
//	POST   /v1/jobs             submit a job (Request body); ?wait=1 blocks
//	GET    /v1/jobs             list jobs (?state=, ?limit=, ?offset=; JobList envelope)
//	GET    /v1/jobs/{id}        one job's snapshot (live progress while running)
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/metrics  the job's telemetry (Prometheus text)
//	GET    /v1/jobs/{id}/report   the finished job's statistical run-report (JSON)
//	GET    /v1/jobs/{id}/trace    the job's span trace (Chrome trace JSON; ?format=jsonl for span JSONL)
//	GET    /v1/jobs/{id}/events   the job's live event stream (SSE; see sse.go)
//	GET    /v1/events           the server-global event stream (SSE)
//	GET    /v1/methods          the estimator registry
//	GET    /v1/workloads        the workload registry
//	GET    /metrics             the server-wide telemetry, with per-job job_<id> gauges (Prometheus text)
//	GET    /healthz             liveness probe
//
// Submissions return 202 with the job snapshot; with ?wait=1 the call
// blocks until the job is terminal and returns 200 with the final
// snapshot — and if the client disconnects while waiting, the job is
// cancelled (the submission's context is the job's lifeline in wait
// mode). An Idempotency-Key request header makes the submission
// at-most-once: a repeat with the same key returns the original job
// (200, with an Idempotent-Replay: true response header), a reuse with
// a different body 409. A result-cache hit likewise returns a job that
// is already done, marked "cached".
//
// Every non-2xx response is an RFC 9457 application/problem+json
// document: a full queue 429, a draining server 503, an unknown
// workload/method or invalid options 400 with the per-field problem
// list in "errors", a distribute request without workers enabled 501.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			WriteProblem(w, badRequest(err))
			return
		}
		job, replay, err := m.SubmitIdempotent(req, r.Header.Get("Idempotency-Key"))
		if err != nil {
			WriteProblem(w, err)
			return
		}
		if replay {
			w.Header().Set("Idempotent-Replay", "true")
			WriteJSON(w, http.StatusOK, job.Snapshot())
			return
		}
		if r.URL.Query().Get("wait") == "" {
			WriteJSON(w, http.StatusAccepted, job.Snapshot())
			return
		}
		// Wait mode: the client's connection is the job's lifeline.
		select {
		case <-job.Done():
			WriteJSON(w, http.StatusOK, job.Snapshot())
		case <-r.Context().Done():
			m.Cancel(job.ID())
			<-job.Done()
			// The client is gone; this write is best-effort.
			WriteJSON(w, statusRequestCancelled, job.Snapshot())
		}
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		state := State(q.Get("state"))
		switch state {
		case "", StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		default:
			WriteProblem(w, badRequest(fmt.Errorf("jobs: unknown state filter %q", state)))
			return
		}
		limit, err := intParam(q.Get("limit"), 100, maxPageSize)
		if err != nil {
			WriteProblem(w, badRequest(err))
			return
		}
		offset, err := intParam(q.Get("offset"), 0, math.MaxInt)
		if err != nil {
			WriteProblem(w, badRequest(err))
			return
		}
		WriteJSON(w, http.StatusOK, m.ListPage(state, limit, offset))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		WriteJSON(w, http.StatusOK, job.Snapshot())
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		WriteJSON(w, http.StatusOK, job.Snapshot())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		job, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		job.Telemetry().MetricsHandler().ServeHTTP(w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		job, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		rep := job.Report()
		if rep == nil {
			writeError(w, http.StatusConflict, errors.New("jobs: run-report is available once the job is done"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		rep.WriteJSON(w)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		job, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		trace := job.Telemetry().TraceData()
		if trace == nil {
			writeError(w, http.StatusNotFound, errors.New("jobs: no trace recorded for this job"))
			return
		}
		if r.URL.Query().Get("format") == "jsonl" {
			w.Header().Set("Content-Type", "application/x-ndjson")
			trace.WriteJSONL(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		trace.WriteChromeTrace(w)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", m.handleJobEvents)
	mux.HandleFunc("GET /v1/events", m.handleGlobalEvents)
	mux.HandleFunc("GET /v1/methods", func(w http.ResponseWriter, r *http.Request) {
		type method struct {
			Name        string `json:"name"`
			Description string `json:"description"`
		}
		out := make([]method, 0, len(repro.AllMethods()))
		for _, mth := range repro.AllMethods() {
			out = append(out, method{Name: mth.String(), Description: mth.Describe()})
		}
		WriteJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		type workload struct {
			Name        string `json:"name"`
			Description string `json:"description"`
			Dim         int    `json:"dim"`
		}
		ws := repro.Workloads()
		out := make([]workload, 0, len(ws))
		for _, wl := range ws {
			out = append(out, workload{Name: wl.Name, Description: wl.Description, Dim: wl.Dim})
		}
		WriteJSON(w, http.StatusOK, out)
	})
	if m.cfg.Registry != nil {
		metrics := m.cfg.Registry.MetricsHandler()
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			m.refreshJobMetrics()
			metrics.ServeHTTP(w, r)
		})
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	return mux
}

// statusRequestCancelled is the non-standard 499 nginx popularized for
// "client closed request" — the best fit for a wait-mode submission
// whose client hung up (the write rarely reaches anyone).
const statusRequestCancelled = 499

// maxPageSize caps the job-list window.
const maxPageSize = 1000

// intParam parses a non-negative integer query parameter, clamped to
// limit; empty selects def.
func intParam(s string, def, limit int) (int, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("jobs: bad query parameter %q (want a non-negative integer)", s)
	}
	return min(v, limit), nil
}

// WriteJSON sends v as an indented JSON document with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError reports a handler-local error as a problem document with
// an explicit status (errors carrying a sentinel go through
// WriteProblem directly and classify themselves).
func writeError(w http.ResponseWriter, status int, err error) {
	WriteProblem(w, &Problem{
		Type:   ProblemType + statusSlug(status),
		Title:  http.StatusText(status),
		Status: status,
		Detail: err.Error(),
	})
}

func statusSlug(status int) string {
	switch status {
	case http.StatusNotFound:
		return "not-found"
	case http.StatusConflict:
		return "conflict"
	default:
		return "internal"
	}
}
