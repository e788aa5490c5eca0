package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"
)

// routes assembles the service mux. Every endpoint passes through
// instrument; only the heavy ones are subject to admission control.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+epSearch, s.instrument(epSearch, true, s.handleSearch))
	mux.HandleFunc("POST "+epSearchImage, s.instrument(epSearchImage, true, s.handleSearchImage))
	mux.HandleFunc("POST "+epSearchTemporal, s.instrument(epSearchTemporal, true, s.handleSearchTemporal))
	mux.HandleFunc("POST "+epInsert, s.instrument(epInsert, true, s.handleInsert))
	mux.HandleFunc("POST "+epRemove, s.instrument(epRemove, true, s.handleRemove))
	mux.HandleFunc("POST "+epCheckpoint, s.instrument(epCheckpoint, true, s.handleCheckpoint))
	mux.HandleFunc("GET "+epHealthz, s.instrument(epHealthz, false, s.handleHealthz))
	mux.HandleFunc("GET "+epStats, s.instrument(epStats, false, s.handleStats))
	return mux
}

// instrument is the middleware stack, innermost handler last:
// panic recovery → lifecycle gate → admission → deadline → metrics.
func (s *Server) instrument(name string, admit bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Inc()
				s.cfg.ErrorLog.Printf("server: panic in %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				if sw.code == 0 {
					writeJSONError(sw, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
				}
			}
			s.met.observe(name, sw.status(), time.Since(start))
		}()
		if !s.enter() {
			writeJSONError(sw, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
		defer s.exit()
		if admit {
			if !s.adm.tryAcquire() {
				s.met.shed.Inc()
				sw.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
				writeJSONError(sw, http.StatusTooManyRequests, "server at capacity, retry later")
				return
			}
			defer s.adm.release()
			if hook := s.testHookAdmitted; hook != nil {
				hook()
			}
		}
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		h(sw, r.WithContext(ctx))
	}
}

// retryAfterSeconds renders a Retry-After duration in whole seconds,
// at least 1 (a 0 hint reads as "retry immediately", defeating shedding).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// statusWriter records the response status so the recovery and metrics
// layers can observe it (and avoid double WriteHeader after a panic).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// errorResponse is the uniform JSON error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// An encode failure here means the client is gone; there is no one
	// left to tell.
	_ = json.NewEncoder(w).Encode(v)
}

func writeJSONError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

// decodeJSON parses a request body into v, enforcing the body size cap
// and strict field names. On failure it writes the error response and
// returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSONError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeJSONError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}
