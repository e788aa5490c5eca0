// Package server turns a vitri.DB into a long-lived HTTP/JSON KNN query
// service (stdlib net/http only). It is the serving layer the ROADMAP's
// "heavy traffic" goal asks for, and robustness is its design center:
//
//   - admission control: the heavy endpoints (/search, /insert, /remove)
//     share a bounded semaphore; requests beyond Config.MaxInFlight are
//     shed immediately with 429 + Retry-After instead of queueing
//     unboundedly, so memory under overload is bounded by
//     MaxInFlight × per-request footprint;
//   - per-request deadlines: search work runs under a context timeout
//     and reports 504 when it expires;
//   - panic containment: a handler panic becomes a 500 JSON error and a
//     log line, never a dead process;
//   - graceful shutdown: Close stops admitting work, drains every
//     in-flight request (including searches abandoned by a timed-out
//     handler) and only then closes the database's page store.
//
// The server holds no locks of its own around DB calls — it always enters
// the DB → Index → Tree → pager hierarchy from the top via exported DB
// methods, which is what keeps vitrilint's lockorder analyzer happy.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vitri"
	"vitri/internal/metrics"
	"vitri/internal/pager"
)

// Config tunes the service. The zero value is usable: every field has a
// serving-quality default.
type Config struct {
	// DefaultK is the result count when a search request omits k (10
	// when zero).
	DefaultK int
	// MaxK bounds requested k (guards per-request allocation; 1000 when
	// zero).
	MaxK int
	// MaxInFlight is the admission limit shared by /search, /insert and
	// /remove (64 when zero). Requests arriving with all slots held are
	// shed with 429.
	MaxInFlight int
	// RequestTimeout bounds the work phase of one request; expired
	// requests answer 504. Zero means no deadline.
	RequestTimeout time.Duration
	// RetryAfter is the hint attached to 429 responses (one second when
	// zero).
	RetryAfter time.Duration
	// MaxBodyBytes caps request bodies (413 beyond it; 32 MiB when zero).
	MaxBodyBytes int64
	// CheckpointEvery, on a durable database, folds the journal into a
	// fresh snapshot whenever its depth reaches this many operations.
	// The checkpoint runs detached from the triggering request (it joins
	// the drain group, so graceful shutdown still waits for it). Zero
	// disables automatic checkpoints; POST /checkpoint always works.
	CheckpointEvery int
	// CheckpointCooldown suppresses automatic checkpoints for this long
	// after one fails. Without it a failed checkpoint is a retry storm:
	// the journal stays over CheckpointEvery, so every subsequent
	// mutation immediately relaunches the same doomed snapshot write.
	// A successful checkpoint (automatic or via POST /checkpoint) clears
	// the cooldown. Zero selects 30s; negative disables the cooldown.
	CheckpointCooldown time.Duration
	// ErrorLog receives panic reports; log.Default() when nil.
	ErrorLog *log.Logger
}

func (c Config) withDefaults() Config {
	if c.DefaultK <= 0 {
		c.DefaultK = 10
	}
	if c.MaxK <= 0 {
		c.MaxK = 1000
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.CheckpointCooldown == 0 {
		c.CheckpointCooldown = 30 * time.Second
	}
	if c.ErrorLog == nil {
		c.ErrorLog = log.Default()
	}
	return c
}

// Server serves KNN queries over one vitri.DB. Create with New; all
// methods are safe for concurrent use.
type Server struct {
	db  *vitri.DB      // immutable after New
	cfg Config         // immutable after New
	adm *admission     // immutable after New; internally synchronized
	met *serverMetrics // immutable after New; internally synchronized
	mux http.Handler   // immutable after New

	mu       sync.Mutex
	draining bool           // guarded by mu
	wg       sync.WaitGroup // in-flight requests + detached search work
	inflight atomic.Int64   // requests inside the lifecycle gate

	// checkpointing dedupes automatic checkpoints: while one runs, later
	// mutations skip triggering another instead of queueing on db.mu.
	checkpointing atomic.Bool

	// Checkpoint health, surfaced in /stats and consulted by the failure
	// cooldown. Guarded by ckptHealthMu (leaf lock: never held across a
	// DB call).
	ckptHealthMu    sync.Mutex
	lastCkptErr     error     // guarded by ckptHealthMu
	lastCkptErrTime time.Time // guarded by ckptHealthMu
	// lastCkptTime is the last successful checkpoint through this
	// server. guarded by ckptHealthMu
	lastCkptTime time.Time

	// Test hooks, called when non-nil; must be set before the first
	// request (they are read without synchronization).
	testHookAdmitted func() // immutable once serving; holds an admission slot
	testHookWork     func() // immutable once serving; runs in the work goroutine
}

// New builds a Server over db. The db should be fully loaded; the index
// itself may still build lazily on the first search.
func New(db *vitri.DB, cfg Config) *Server {
	s := &Server{
		db:  db,
		cfg: cfg.withDefaults(),
	}
	s.adm = newAdmission(s.cfg.MaxInFlight)
	s.met = newServerMetrics(epSearch, epSearchImage, epSearchTemporal, epInsert, epRemove, epCheckpoint, epHealthz, epStats)
	s.mux = s.routes()
	return s
}

// Handler returns the service's root handler (mount it on an
// http.Server or httptest.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// Close gracefully shuts the service down: new requests are rejected
// with 503, every admitted request — and any search a timed-out handler
// abandoned — is drained, and only then is the database's page store
// closed. ctx bounds the drain; when it expires the store is left open
// (in-flight work may still be using it) and ctx's error is returned.
// Close is idempotent.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.db.Close()
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted, page store left open: %w", ctx.Err())
	}
}

// enter registers one request with the drain group; it fails once Close
// has begun. Every enter is paired with exit.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.wg.Add(1)
	s.inflight.Add(1)
	return true
}

func (s *Server) exit() {
	s.inflight.Add(-1)
	s.wg.Done()
}

// callWithDeadline runs f on its own goroutine and waits for its result
// or the context, whichever comes first. The goroutine joins the drain
// group, so a graceful Close waits for work its handler abandoned on
// timeout before closing the pager. The caller must itself be inside the
// drain group (wg.Add while the counter is positive is what makes the
// Add/Wait race benign).
func (s *Server) callWithDeadline(ctx context.Context, f func() (interface{}, error)) (interface{}, error) {
	type outcome struct {
		v   interface{}
		err error
	}
	ch := make(chan outcome, 1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if hook := s.testHookWork; hook != nil {
			hook()
		}
		v, err := f()
		ch <- outcome{v, err}
	}()
	select {
	case out := <-ch:
		return out.v, out.err
	case <-ctx.Done():
		s.met.timeouts.Inc()
		return nil, ctx.Err()
	}
}

// statusFor maps an error onto its HTTP response status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, vitri.ErrDuplicateID):
		return http.StatusConflict
	case errors.Is(err, vitri.ErrNotDurable):
		return http.StatusConflict
	case errors.Is(err, vitri.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, vitri.ErrEmptyDB), errors.Is(err, pager.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// Endpoint names (also the /stats keys).
const (
	epSearch         = "/search"
	epSearchImage    = "/search/image"
	epSearchTemporal = "/search/temporal"
	epInsert         = "/insert"
	epRemove         = "/remove"
	epCheckpoint     = "/checkpoint"
	epHealthz        = "/healthz"
	epStats          = "/stats"
)

// maybeCheckpoint triggers an automatic checkpoint when the journal has
// grown past Config.CheckpointEvery. Called after a successful mutation,
// from inside the drain group; the checkpoint itself runs detached so
// the triggering request doesn't wait for the snapshot write. At most
// one automatic checkpoint runs at a time, and a failed one starts the
// Config.CheckpointCooldown clock — the journal is still over the
// threshold after a failure, so without the cooldown every subsequent
// mutation would immediately relaunch the same doomed snapshot write.
func (s *Server) maybeCheckpoint() {
	if s.cfg.CheckpointEvery <= 0 || !s.db.Durable() {
		return
	}
	if s.db.DurabilityStats().Journal.Depth < s.cfg.CheckpointEvery {
		return
	}
	if s.inCheckpointCooldown() {
		return
	}
	if !s.checkpointing.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.checkpointing.Store(false)
		if err := s.runCheckpoint(); err != nil {
			s.cfg.ErrorLog.Printf("server: automatic checkpoint: %v (next attempt after %v)", err, s.cfg.CheckpointCooldown)
		}
	}()
}

// inCheckpointCooldown reports whether a recent checkpoint failure is
// still suppressing automatic checkpoints.
func (s *Server) inCheckpointCooldown() bool {
	if s.cfg.CheckpointCooldown <= 0 {
		return false
	}
	s.ckptHealthMu.Lock()
	defer s.ckptHealthMu.Unlock()
	return s.lastCkptErr != nil && time.Since(s.lastCkptErrTime) < s.cfg.CheckpointCooldown
}

// runCheckpoint folds the journal and records the outcome in the
// checkpoint-health fields /stats surfaces. Both the automatic trigger
// and POST /checkpoint go through it, so a successful manual checkpoint
// also clears the failure cooldown.
func (s *Server) runCheckpoint() error {
	err := s.db.Checkpoint()
	s.ckptHealthMu.Lock()
	if err != nil {
		s.lastCkptErr = err
		s.lastCkptErrTime = time.Now()
	} else {
		s.lastCkptErr = nil
		s.lastCkptTime = time.Now()
	}
	s.ckptHealthMu.Unlock()
	return err
}

// checkpointHealth snapshots the health fields for /stats.
func (s *Server) checkpointHealth() (lastErr error, lastErrTime, lastOK time.Time) {
	s.ckptHealthMu.Lock()
	defer s.ckptHealthMu.Unlock()
	return s.lastCkptErr, s.lastCkptErrTime, s.lastCkptTime
}

// serverMetrics aggregates the service's counters and latency histograms.
// Each query workload (whole-video /search, query-by-image /search/image,
// temporal /search/temporal) gets its own query/work counters so /stats
// attributes page reads and pre-filter skips per workload.
type serverMetrics struct {
	shed, panics, timeouts                 metrics.Counter
	searchQueries, searchPageReads         metrics.Counter
	searchSimOps, searchSignatureSkips     metrics.Counter
	imageQueries, imagePageReads           metrics.Counter
	imageSimOps, imageSignatureSkips       metrics.Counter
	temporalQueries, temporalPageReads     metrics.Counter
	temporalSimOps, temporalSignatureSkips metrics.Counter
	endpoints                              map[string]*endpointMetrics
}

type endpointMetrics struct {
	requests  metrics.Counter
	errors5xx metrics.Counter
	latency   *metrics.Histogram
}

func newServerMetrics(names ...string) *serverMetrics {
	m := &serverMetrics{endpoints: make(map[string]*endpointMetrics, len(names))}
	for _, n := range names {
		m.endpoints[n] = &endpointMetrics{latency: metrics.NewHistogram(metrics.LatencyBounds())}
	}
	return m
}

func (m *serverMetrics) observe(name string, code int, d time.Duration) {
	ep := m.endpoints[name]
	if ep == nil {
		return
	}
	ep.requests.Inc()
	if code >= 500 {
		ep.errors5xx.Inc()
	}
	ep.latency.Observe(d.Seconds())
}
