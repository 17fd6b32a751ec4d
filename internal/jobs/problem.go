package jobs

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro"

	"repro/internal/wire"
)

// RFC 9457 problem details: every non-2xx response from the v1 API is
// an application/problem+json document, so clients branch on a stable
// machine-readable Type instead of parsing English. Type is a URN in
// the "urn:repro:problem:" namespace — the API has no dereferenceable
// documentation host, and 9457 §3.1.1 explicitly allows non-resolvable
// URIs.

// ProblemType is the URN prefix of every problem Type this API emits.
const ProblemType = wire.ProblemURNPrefix

// Problem is the RFC 9457 error document. It implements error, so the
// typed client surfaces API failures as *Problem values callers can
// inspect with errors.As.
type Problem struct {
	// Type identifies the problem class (ProblemType + slug).
	Type string `json:"type"`
	// Title is the short human summary of the class; Status the HTTP
	// status the document traveled with.
	Title  string `json:"title"`
	Status int    `json:"status"`
	// Detail describes this occurrence.
	Detail string `json:"detail,omitempty"`
	// Errors itemizes field-level validation failures (extension member,
	// per 9457 §3.2).
	Errors []string `json:"errors,omitempty"`
}

// Error implements error.
func (p *Problem) Error() string {
	if p.Detail != "" {
		return p.Detail
	}
	return p.Title
}

// problemFrom classifies err into the problem document the API reports.
func problemFrom(err error) *Problem {
	p := &Problem{Detail: err.Error()}
	switch {
	case errors.Is(err, ErrQueueFull):
		p.Type, p.Title, p.Status = wire.ProblemQueueFull, "Job queue is full", http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		p.Type, p.Title, p.Status = wire.ProblemDraining, "Server is draining", http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound):
		p.Type, p.Title, p.Status = wire.ProblemNotFound, "No such job", http.StatusNotFound
	case errors.Is(err, ErrIdempotencyConflict):
		p.Type, p.Title, p.Status = wire.ProblemIdempotencyConflict, "Idempotency key reused with a different request", http.StatusConflict
	case errors.Is(err, ErrDistributionDisabled):
		p.Type, p.Title, p.Status = wire.ProblemDistributionDisabled, "Distributed execution is not enabled", http.StatusNotImplemented
	case errors.Is(err, repro.ErrNotShardable):
		p.Type, p.Title, p.Status = wire.ProblemNotDistributable, "Options cannot run distributed", http.StatusBadRequest
	case errors.Is(err, repro.ErrInvalidOptions),
		errors.Is(err, repro.ErrUnknownMethod),
		errors.Is(err, repro.ErrUnknownWorkload):
		p.Type, p.Title, p.Status = wire.ProblemInvalidRequest, "Request validation failed", http.StatusBadRequest
		p.Errors = leaves(err)
	default:
		p.Type, p.Title, p.Status = wire.ProblemInternal, "Internal error", http.StatusInternalServerError
	}
	return p
}

// badRequest wraps a transport-level failure (malformed JSON, bad query
// parameter) as a 400 problem.
func badRequest(err error) *Problem {
	return &Problem{
		Type: wire.ProblemInvalidRequest, Title: "Request validation failed",
		Status: http.StatusBadRequest, Detail: err.Error(),
	}
}

// leaves flattens a joined validation error into its per-field
// messages: multi-error nodes recurse, single-wrap chains are kept
// whole (their text carries the "Field: reason" prefix), and the bare
// sentinel itself is dropped — it is already the problem Type.
func leaves(err error) []string {
	if multi, ok := err.(interface{ Unwrap() []error }); ok {
		var out []string
		for _, e := range multi.Unwrap() {
			out = append(out, leaves(e)...)
		}
		return out
	}
	msg := err.Error()
	for _, sentinel := range []error{repro.ErrInvalidOptions, repro.ErrUnknownMethod, repro.ErrUnknownWorkload} {
		if msg == sentinel.Error() {
			return nil
		}
	}
	return []string{msg}
}

// WriteProblem sends err as its problem document: a *Problem passes
// through as is, any other error is classified by its sentinel.
func WriteProblem(w http.ResponseWriter, err error) {
	var p *Problem
	if !errors.As(err, &p) {
		p = problemFrom(err)
	}
	w.Header().Set("Content-Type", "application/problem+json")
	w.WriteHeader(p.Status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(p)
}
