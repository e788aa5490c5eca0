package server

import (
	"fmt"
	"math"
	"net/http"

	"vitri"
)

// The two PR-10 query workloads, served next to whole-video /search:
//
//   - POST /search/image — one frame histogram in, videos ranked by their
//     best-matching triplet out (DB.SearchImage);
//   - POST /search/temporal — a frame sequence in, order-aware blended
//     rankings out (DB.SearchTemporal).
//
// Both share /search's serving contract: admission control, the request
// deadline, per-query stats in the response, and cumulative per-workload
// counters in /stats.

// parseMode maps a request's mode string onto a QueryMode, answering 400
// itself on unknown values. An absent mode is Composed, not
// vitri.QueryMode's zero value (Naive): over HTTP the default is the
// cheaper composed scan.
func parseMode(w http.ResponseWriter, mode string) (vitri.QueryMode, bool) {
	switch mode {
	case "", "composed":
		return vitri.Composed, true
	case "naive":
		return vitri.Naive, true
	default:
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q", mode))
		return 0, false
	}
}

// parseK validates a request's k, answering 400 itself when out of range.
func (s *Server) parseK(w http.ResponseWriter, k int) (int, bool) {
	if k == 0 {
		k = s.cfg.DefaultK
	}
	if k < 1 || k > s.cfg.MaxK {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("k must be in [1, %d]", s.cfg.MaxK))
		return 0, false
	}
	return k, true
}

// imageSearchRequest is the /search/image body.
type imageSearchRequest struct {
	// Frame is the query image's feature vector (e.g. its normalized RGB
	// histogram), in the database's frame dimensionality.
	Frame []float64 `json:"frame"`
	// K is the result count (Config.DefaultK when omitted).
	K int `json:"k,omitempty"`
	// Mode is "composed" or "naive"; absent means "composed". (The Go
	// API differs: vitri.QueryMode's zero value is Naive.)
	Mode string `json:"mode,omitempty"`
}

func (s *Server) handleSearchImage(w http.ResponseWriter, r *http.Request) {
	var req imageSearchRequest
	if !decodeJSON(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	k, ok := s.parseK(w, req.K)
	if !ok {
		return
	}
	mode, ok := parseMode(w, req.Mode)
	if !ok {
		return
	}
	if len(req.Frame) == 0 {
		writeJSONError(w, http.StatusBadRequest, "frame must not be empty")
		return
	}
	for i, v := range req.Frame {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("frame value %d is not finite", i))
			return
		}
	}
	out, err := s.callWithDeadline(r.Context(), func() (interface{}, error) {
		matches, stats, err := s.db.SearchImage(vitri.Vector(req.Frame), k, mode)
		if err != nil {
			return nil, err
		}
		s.met.imageQueries.Inc()
		s.met.imagePageReads.Add(stats.PageReads)
		s.met.imageSimOps.Add(uint64(stats.SimilarityOps))
		s.met.imageSignatureSkips.Add(uint64(stats.SignatureSkips))
		return &searchResponse{Matches: toMatchJSON(matches), Stats: toStatsJSON(stats)}, nil
	})
	if err != nil {
		writeJSONError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// temporalSearchRequest is the /search/temporal body.
type temporalSearchRequest struct {
	// Frames is the query sequence's frame feature vectors, in temporal
	// order.
	Frames [][]float64 `json:"frames"`
	// K is the result count (Config.DefaultK when omitted).
	K int `json:"k,omitempty"`
	// Weight blends order into the ranking: score =
	// (1-weight)·bag + weight·temporal, in [0, 1]. Defaults to 0.5.
	Weight *float64 `json:"weight,omitempty"`
	// Mode is "composed" or "naive"; absent means "composed". (The Go
	// API differs: vitri.QueryMode's zero value is Naive.)
	Mode string `json:"mode,omitempty"`
}

// temporalMatchJSON is one /search/temporal result: the blended ranking
// score with its order-blind and order-preserving components.
type temporalMatchJSON struct {
	VideoID  int     `json:"video_id"`
	Score    float64 `json:"score"`
	Bag      float64 `json:"bag"`
	Temporal float64 `json:"temporal"`
}

type temporalSearchResponse struct {
	Matches []temporalMatchJSON `json:"matches"`
	Stats   searchStatsJSON     `json:"stats"`
}

func (s *Server) handleSearchTemporal(w http.ResponseWriter, r *http.Request) {
	var req temporalSearchRequest
	if !decodeJSON(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	k, ok := s.parseK(w, req.K)
	if !ok {
		return
	}
	mode, ok := parseMode(w, req.Mode)
	if !ok {
		return
	}
	weight := 0.5
	if req.Weight != nil {
		weight = *req.Weight
	}
	if math.IsNaN(weight) || weight < 0 || weight > 1 {
		writeJSONError(w, http.StatusBadRequest, "weight must be in [0, 1]")
		return
	}
	frames, err := toVectors(req.Frames)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "frames: "+err.Error())
		return
	}
	out, err := s.callWithDeadline(r.Context(), func() (interface{}, error) {
		matches, stats, err := s.db.SearchTemporal(frames, k, weight, mode)
		if err != nil {
			return nil, err
		}
		s.met.temporalQueries.Inc()
		s.met.temporalPageReads.Add(stats.PageReads)
		s.met.temporalSimOps.Add(uint64(stats.SimilarityOps))
		s.met.temporalSignatureSkips.Add(uint64(stats.SignatureSkips))
		resp := &temporalSearchResponse{
			Matches: make([]temporalMatchJSON, len(matches)),
			Stats:   toStatsJSON(stats),
		}
		for i, m := range matches {
			resp.Matches[i] = temporalMatchJSON{
				VideoID:  m.VideoID,
				Score:    m.Score,
				Bag:      m.Bag,
				Temporal: m.Temporal,
			}
		}
		return resp, nil
	})
	if err != nil {
		writeJSONError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, out)
}
