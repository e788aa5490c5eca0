package server

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"vitri"
)

// searchRequest is the /search body. Exactly one of frames (single
// query) or queries (batch) must be present.
type searchRequest struct {
	// Frames is one query video's frame feature vectors.
	Frames [][]float64 `json:"frames,omitempty"`
	// Queries is a batch: one frame sequence per query.
	Queries [][][]float64 `json:"queries,omitempty"`
	// K is the result count (Config.DefaultK when omitted).
	K int `json:"k,omitempty"`
	// Epsilon overrides the summarization threshold for the query side
	// only; the index always searches at the ε it was built with.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Mode is "composed" or "naive"; absent means "composed". (The Go
	// API differs: vitri.QueryMode's zero value is Naive.)
	Mode string `json:"mode,omitempty"`
}

type matchJSON struct {
	VideoID    int     `json:"video_id"`
	Similarity float64 `json:"similarity"`
	Shared     float64 `json:"shared"`
}

type searchStatsJSON struct {
	Ranges         int    `json:"ranges"`
	Candidates     int    `json:"candidates"`
	SimilarityOps  int    `json:"similarity_ops"`
	SignatureSkips int    `json:"signature_skips"`
	PageReads      uint64 `json:"page_reads"`
}

type searchResponse struct {
	Matches []matchJSON     `json:"matches"`
	Stats   searchStatsJSON `json:"stats"`
}

type batchItemJSON struct {
	Matches []matchJSON     `json:"matches,omitempty"`
	Stats   searchStatsJSON `json:"stats"`
	Error   string          `json:"error,omitempty"`
}

type batchResponse struct {
	Results []batchItemJSON `json:"results"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if !decodeJSON(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if (req.Frames == nil) == (req.Queries == nil) {
		writeJSONError(w, http.StatusBadRequest, "exactly one of frames and queries must be set")
		return
	}
	k := req.K
	if k == 0 {
		k = s.cfg.DefaultK
	}
	if k < 1 || k > s.cfg.MaxK {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("k must be in [1, %d]", s.cfg.MaxK))
		return
	}
	eps := req.Epsilon
	if eps == 0 {
		eps = s.db.Epsilon()
	}
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		writeJSONError(w, http.StatusBadRequest, "epsilon must be positive and finite")
		return
	}
	mode, ok := parseMode(w, req.Mode)
	if !ok {
		return
	}

	if req.Frames != nil {
		frames, err := toVectors(req.Frames)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, "frames: "+err.Error())
			return
		}
		out, err := s.callWithDeadline(r.Context(), func() (interface{}, error) {
			q := vitri.Summarize(-1, frames, eps, s.db.Seed())
			matches, stats, err := s.db.SearchSummary(&q, k, mode)
			if err != nil {
				return nil, err
			}
			s.met.searchQueries.Inc()
			s.met.searchPageReads.Add(stats.PageReads)
			s.met.searchSimOps.Add(uint64(stats.SimilarityOps))
			s.met.searchSignatureSkips.Add(uint64(stats.SignatureSkips))
			return &searchResponse{Matches: toMatchJSON(matches), Stats: toStatsJSON(stats)}, nil
		})
		if err != nil {
			writeJSONError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, out)
		return
	}

	queries := make([]vitri.Summary, len(req.Queries))
	framesPer := make([][]vitri.Vector, len(req.Queries))
	for i, fr := range req.Queries {
		frames, err := toVectors(fr)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("queries[%d]: %v", i, err))
			return
		}
		framesPer[i] = frames
	}
	out, err := s.callWithDeadline(r.Context(), func() (interface{}, error) {
		for i := range framesPer {
			queries[i] = vitri.Summarize(-1, framesPer[i], eps, s.db.Seed())
		}
		items, err := s.db.SearchBatch(queries, k, mode)
		if err != nil {
			return nil, err
		}
		resp := batchResponse{Results: make([]batchItemJSON, len(items))}
		for i := range items {
			it := &items[i]
			resp.Results[i].Stats = toStatsJSON(it.Stats)
			if it.Err != nil {
				resp.Results[i].Error = it.Err.Error()
				continue
			}
			resp.Results[i].Matches = toMatchJSON(it.Results)
			s.met.searchQueries.Inc()
			s.met.searchPageReads.Add(it.Stats.PageReads)
			s.met.searchSimOps.Add(uint64(it.Stats.SimilarityOps))
			s.met.searchSignatureSkips.Add(uint64(it.Stats.SignatureSkips))
		}
		return &resp, nil
	})
	if err != nil {
		writeJSONError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// insertRequest is the /insert body. Exactly one of frames (single video,
// with id) or videos (batch) must be present.
type insertRequest struct {
	ID     int          `json:"id"`
	Frames [][]float64  `json:"frames,omitempty"`
	Videos []insertItem `json:"videos,omitempty"`
}

// insertItem is one video of a batch insert.
type insertItem struct {
	ID     int         `json:"id"`
	Frames [][]float64 `json:"frames"`
}

type mutateResponse struct {
	ID     int `json:"id"`
	Videos int `json:"videos"`
}

// insertBatchItemJSON is one video's outcome in a batch insert: its id and
// the error that rejected it, if any.
type insertBatchItemJSON struct {
	ID    int    `json:"id"`
	Error string `json:"error,omitempty"`
}

type insertBatchResponse struct {
	Results  []insertBatchItemJSON `json:"results"`
	Inserted int                   `json:"inserted"`
	Videos   int                   `json:"videos"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req insertRequest
	if !decodeJSON(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if (req.Frames == nil) == (req.Videos == nil) {
		writeJSONError(w, http.StatusBadRequest, "exactly one of frames and videos must be set")
		return
	}
	if req.Videos != nil {
		s.handleInsertBatch(w, r, req.Videos)
		return
	}
	if req.ID < 0 {
		writeJSONError(w, http.StatusBadRequest, "id must be non-negative")
		return
	}
	frames, err := toVectors(req.Frames)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "frames: "+err.Error())
		return
	}
	_, err = s.callWithDeadline(r.Context(), func() (interface{}, error) {
		return nil, s.db.Add(req.ID, frames)
	})
	if err != nil {
		writeJSONError(w, statusFor(err), err.Error())
		return
	}
	s.maybeCheckpoint()
	writeJSON(w, http.StatusOK, mutateResponse{ID: req.ID, Videos: s.db.Len()})
}

// handleInsertBatch loads a batch through DB.AddBatch — summarization fans
// out across the ingest worker pool, then the videos merge in request
// order under one lock. Every video gets its own status slot; an invalid
// video never rejects its batch-mates. The whole request fails only on
// batch-level errors (the drift-triggered rebuild).
func (s *Server) handleInsertBatch(w http.ResponseWriter, r *http.Request, items []insertItem) {
	if len(items) == 0 {
		writeJSONError(w, http.StatusBadRequest, "videos must not be empty")
		return
	}
	results := make([]insertBatchItemJSON, len(items))
	// Frame-level validation (shape, finiteness) happens here so the
	// ingest pool only ever sees well-formed vectors; AddBatch itself
	// reports id-level rejections (negative, duplicate, no frames).
	videos := make([]vitri.Video, 0, len(items))
	slot := make([]int, 0, len(items)) // videos[j] reports into results[slot[j]]
	for i, it := range items {
		results[i].ID = it.ID
		frames, err := toVectors(it.Frames)
		if err != nil {
			results[i].Error = "frames: " + err.Error()
			continue
		}
		videos = append(videos, vitri.Video{ID: it.ID, Frames: frames})
		slot = append(slot, i)
	}
	out, err := s.callWithDeadline(r.Context(), func() (interface{}, error) {
		itemErrs, err := s.db.AddBatch(videos)
		if err != nil {
			return nil, err
		}
		inserted := 0
		for j, e := range itemErrs {
			if e != nil {
				results[slot[j]].Error = e.Error()
				continue
			}
			inserted++
		}
		return &insertBatchResponse{Results: results, Inserted: inserted, Videos: s.db.Len()}, nil
	})
	if err != nil {
		writeJSONError(w, statusFor(err), err.Error())
		return
	}
	s.maybeCheckpoint()
	writeJSON(w, http.StatusOK, out)
}

// removeRequest is the /remove body.
type removeRequest struct {
	ID int `json:"id"`
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	var req removeRequest
	if !decodeJSON(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	_, err := s.callWithDeadline(r.Context(), func() (interface{}, error) {
		return nil, s.db.Remove(req.ID)
	})
	if err != nil {
		writeJSONError(w, statusFor(err), err.Error())
		return
	}
	s.maybeCheckpoint()
	writeJSON(w, http.StatusOK, mutateResponse{ID: req.ID, Videos: s.db.Len()})
}

// checkpointResponse is the /checkpoint body: the durable position after
// the fold.
type checkpointResponse struct {
	SnapshotSeq  uint64 `json:"snapshot_seq"`
	JournalDepth int    `json:"journal_depth"`
	Checkpoints  uint64 `json:"checkpoints"`
}

// handleCheckpoint folds the journal into a fresh snapshot on demand —
// the admin endpoint behind `curl -X POST /checkpoint`. Answers 409 on a
// non-durable database.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	_, err := s.callWithDeadline(r.Context(), func() (interface{}, error) {
		return nil, s.runCheckpoint()
	})
	if err != nil {
		writeJSONError(w, statusFor(err), err.Error())
		return
	}
	st := s.db.DurabilityStats()
	writeJSON(w, http.StatusOK, checkpointResponse{
		SnapshotSeq:  st.SnapshotSeq,
		JournalDepth: st.Journal.Depth,
		Checkpoints:  st.Checkpoints,
	})
}

type healthzResponse struct {
	Status   string `json:"status"`
	Videos   int    `json:"videos"`
	Triplets int    `json:"triplets"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:   "ok",
		Videos:   s.db.Len(),
		Triplets: s.db.Triplets(),
	})
}

type endpointStatsJSON struct {
	Requests     uint64  `json:"requests"`
	Errors5xx    uint64  `json:"errors_5xx"`
	LatencyMeanS float64 `json:"latency_mean_s"`
	LatencyP50S  float64 `json:"latency_p50_s"`
	LatencyP95S  float64 `json:"latency_p95_s"`
	LatencyP99S  float64 `json:"latency_p99_s"`
	LatencyMaxS  float64 `json:"latency_max_s"`
}

type pagerStatsJSON struct {
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	Allocs uint64 `json:"allocs"`
}

// durabilityStatsJSON surfaces the durable store's health: journal depth
// and size, the fsync profile (group commit makes fsyncs < operations
// under load), and the snapshot position.
type durabilityStatsJSON struct {
	Dir             string  `json:"dir"`
	SnapshotSeq     uint64  `json:"snapshot_seq"`
	SnapshotVersion uint32  `json:"snapshot_version"`
	Checkpoints     uint64  `json:"checkpoints"`
	JournalDepth    int     `json:"journal_depth"`
	JournalBytes    int64   `json:"journal_bytes"`
	LastSeq         uint64  `json:"last_seq"`
	DurableSeq      uint64  `json:"durable_seq"`
	Fsyncs          uint64  `json:"fsyncs"`
	FsyncMeanS      float64 `json:"fsync_mean_s"`
	FsyncP50S       float64 `json:"fsync_p50_s"`
	FsyncP99S       float64 `json:"fsync_p99_s"`
	FsyncMaxS       float64 `json:"fsync_max_s"`
	// Checkpoint health through this server: the last failure (empty
	// when the most recent checkpoint succeeded) with its time, and the
	// last success. A standing LastCheckpointError means automatic
	// checkpoints are in their failure cooldown and the journal is
	// growing unchecked — the alertable condition.
	LastCheckpointError  string `json:"last_checkpoint_error,omitempty"`
	LastCheckpointErrorT string `json:"last_checkpoint_error_time,omitempty"`
	LastCheckpointTime   string `json:"last_checkpoint_time,omitempty"`
}

type statsResponse struct {
	Videos          int    `json:"videos"`
	Triplets        int    `json:"triplets"`
	InFlight        int64  `json:"in_flight"`
	AdmissionHeld   int    `json:"admission_held"`
	AdmissionLimit  int    `json:"admission_limit"`
	Shed            uint64 `json:"shed"`
	Panics          uint64 `json:"panics"`
	Timeouts        uint64 `json:"timeouts"`
	SearchQueries   uint64 `json:"search_queries"`
	SearchPageReads uint64 `json:"search_page_reads"`
	// Cumulative pre-filter accounting: exact similarity evaluations
	// performed vs. candidates proven disjoint by the signature tier and
	// skipped before any geometry ran.
	SearchSimilarityOps  uint64 `json:"search_similarity_ops"`
	SearchSignatureSkips uint64 `json:"search_signature_skips"`
	// The same per-workload attribution for the query-by-image and
	// temporal subsequence endpoints.
	ImageQueries           uint64                       `json:"image_queries"`
	ImagePageReads         uint64                       `json:"image_page_reads"`
	ImageSimilarityOps     uint64                       `json:"image_similarity_ops"`
	ImageSignatureSkips    uint64                       `json:"image_signature_skips"`
	TemporalQueries        uint64                       `json:"temporal_queries"`
	TemporalPageReads      uint64                       `json:"temporal_page_reads"`
	TemporalSimilarityOps  uint64                       `json:"temporal_similarity_ops"`
	TemporalSignatureSkips uint64                       `json:"temporal_signature_skips"`
	Pager                  pagerStatsJSON               `json:"pager"`
	Durability             *durabilityStatsJSON         `json:"durability,omitempty"`
	Endpoints              map[string]endpointStatsJSON `json:"endpoints"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	ps := s.db.PagerStats()
	resp := statsResponse{
		Videos:                 s.db.Len(),
		Triplets:               s.db.Triplets(),
		InFlight:               s.inflight.Load(),
		AdmissionHeld:          s.adm.held(),
		AdmissionLimit:         s.cfg.MaxInFlight,
		Shed:                   s.met.shed.Value(),
		Panics:                 s.met.panics.Value(),
		Timeouts:               s.met.timeouts.Value(),
		SearchQueries:          s.met.searchQueries.Value(),
		SearchPageReads:        s.met.searchPageReads.Value(),
		SearchSimilarityOps:    s.met.searchSimOps.Value(),
		SearchSignatureSkips:   s.met.searchSignatureSkips.Value(),
		ImageQueries:           s.met.imageQueries.Value(),
		ImagePageReads:         s.met.imagePageReads.Value(),
		ImageSimilarityOps:     s.met.imageSimOps.Value(),
		ImageSignatureSkips:    s.met.imageSignatureSkips.Value(),
		TemporalQueries:        s.met.temporalQueries.Value(),
		TemporalPageReads:      s.met.temporalPageReads.Value(),
		TemporalSimilarityOps:  s.met.temporalSimOps.Value(),
		TemporalSignatureSkips: s.met.temporalSignatureSkips.Value(),
		Pager:                  pagerStatsJSON{Reads: ps.Reads, Writes: ps.Writes, Allocs: ps.Allocs},
		Endpoints:              make(map[string]endpointStatsJSON, len(s.met.endpoints)),
	}
	if ds := s.db.DurabilityStats(); ds.Enabled {
		fl := ds.Journal.FsyncLatency
		resp.Durability = &durabilityStatsJSON{
			Dir:             ds.Dir,
			SnapshotSeq:     ds.SnapshotSeq,
			SnapshotVersion: ds.SnapshotVersion,
			Checkpoints:     ds.Checkpoints,
			JournalDepth:    ds.Journal.Depth,
			JournalBytes:    ds.Journal.Bytes,
			LastSeq:         ds.Journal.LastSeq,
			DurableSeq:      ds.Journal.DurableSeq,
			Fsyncs:          ds.Journal.Fsyncs,
			FsyncMeanS:      fl.MeanValue(),
			FsyncP50S:       fl.Quantile(0.50),
			FsyncP99S:       fl.Quantile(0.99),
			FsyncMaxS:       fl.Max,
		}
		if lastErr, lastErrT, lastOK := s.checkpointHealth(); lastErr != nil || !lastOK.IsZero() {
			if lastErr != nil {
				resp.Durability.LastCheckpointError = lastErr.Error()
				resp.Durability.LastCheckpointErrorT = lastErrT.UTC().Format(time.RFC3339Nano)
			}
			if !lastOK.IsZero() {
				resp.Durability.LastCheckpointTime = lastOK.UTC().Format(time.RFC3339Nano)
			}
		}
	}
	for name, ep := range s.met.endpoints {
		snap := ep.latency.Snapshot()
		resp.Endpoints[name] = endpointStatsJSON{
			Requests:     ep.requests.Value(),
			Errors5xx:    ep.errors5xx.Value(),
			LatencyMeanS: snap.MeanValue(),
			LatencyP50S:  snap.Quantile(0.50),
			LatencyP95S:  snap.Quantile(0.95),
			LatencyP99S:  snap.Quantile(0.99),
			LatencyMaxS:  snap.Max,
		}
	}
	writeJSON(w, http.StatusOK, &resp)
}

// toVectors validates and converts a JSON frame matrix: non-empty, one
// consistent dimensionality, finite values only.
func toVectors(frames [][]float64) ([]vitri.Vector, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("no frames")
	}
	dim := len(frames[0])
	out := make([]vitri.Vector, len(frames))
	for i, fr := range frames {
		if len(fr) == 0 {
			return nil, fmt.Errorf("frame %d is empty", i)
		}
		if len(fr) != dim {
			return nil, fmt.Errorf("frame %d has %d dims, frame 0 has %d", i, len(fr), dim)
		}
		for j, v := range fr {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("frame %d value %d is not finite", i, j)
			}
		}
		out[i] = vitri.Vector(fr)
	}
	return out, nil
}

func toMatchJSON(ms []vitri.Match) []matchJSON {
	out := make([]matchJSON, len(ms))
	for i, m := range ms {
		out[i] = matchJSON{VideoID: m.VideoID, Similarity: m.Similarity, Shared: m.Shared}
	}
	return out
}

func toStatsJSON(st vitri.SearchStats) searchStatsJSON {
	return searchStatsJSON{
		Ranges:         st.Ranges,
		Candidates:     st.Candidates,
		SimilarityOps:  st.SimilarityOps,
		SignatureSkips: st.SignatureSkips,
		PageReads:      st.PageReads,
	}
}
