package vitri

import (
	"errors"
	"math"

	"vitri/internal/core"
	"vitri/internal/temporal"
	"vitri/internal/vec"
)

// Temporal re-ranking (the paper's §7 future work): the core measure is
// order-blind, so a re-cut trailer with the same shots as a film scores
// like the film itself. TemporalSignature and RerankTemporal let callers
// add order back as a post-processing step over a search's candidates.

// TemporalSignature is a video's shot-order signature.
type TemporalSignature = temporal.Signature

// NewTemporalSignature derives the temporal signature of a video's frames
// under its summary (every frame is assigned to its nearest triplet;
// consecutive equal assignments form runs).
func NewTemporalSignature(frames []Vector, s *Summary) (*TemporalSignature, error) {
	return temporal.NewSignature(frames, s)
}

// TemporalSimilarity is the order-preserving analogue of Similarity: only
// frames that match in compatible temporal order count.
func TemporalSimilarity(a, b *TemporalSignature) float64 {
	return temporal.Similarity(a, b)
}

// RerankTemporal re-orders search matches by blending each match's
// order-blind similarity with its temporal similarity to the query:
// score = (1-weight)·bag + weight·temporal. Matches without a signature
// in sigs keep their original score. The returned slice is sorted by the
// blended score.
func RerankTemporal(query *TemporalSignature, matches []Match, sigs map[int]*TemporalSignature, weight float64) []Match {
	cands := make([]temporal.Scored, len(matches))
	for i, m := range matches {
		cands[i] = temporal.Scored{VideoID: m.VideoID, Score: m.Similarity}
	}
	ranked := temporal.Rerank(query, cands, sigs, weight)
	out := make([]Match, len(ranked))
	for i, r := range ranked {
		out[i] = Match{VideoID: r.VideoID, Similarity: r.Score}
	}
	return out
}

// TemporalMatch is one result of a temporal subsequence search: the
// blended score it ranked by, decomposed into its order-blind and
// order-preserving components.
type TemporalMatch struct {
	VideoID int
	// Score is the blended ranking score:
	// (1-weight)·Bag + weight·Temporal, or just Bag for videos with no
	// registered temporal signature.
	Score float64
	// Bag is the order-blind §3.1 similarity the index reported.
	Bag float64
	// Temporal is the order-preserving similarity of the video's shot
	// sequence to the query's. Zero for videos with no registered
	// signature (ingested as bare summaries or recovered from disk).
	Temporal float64
}

// SearchTemporal answers a temporal subsequence query: the frames are
// summarized and searched like a whole video, and the candidate set is
// re-ranked by blending each match's order-blind similarity with the
// order-preserving similarity of its shot sequence to the query's
// (weight 0 ranks purely by the bag measure, weight 1 purely by order).
// Candidate retrieval is the byte-identical scatter-gather KNN every
// other workload uses, so the candidate set — and hence the final
// ranking — does not depend on the shard count or ingestion order.
// Videos ingested without frames (AddSummary, durable recovery) have no
// shot order on record and keep their bag score, as RerankTemporal
// documents. Stats reports the candidate search's work.
func (db *DB) SearchTemporal(frames []Vector, k int, weight float64, mode QueryMode) ([]TemporalMatch, SearchStats, error) {
	if len(frames) == 0 {
		return nil, SearchStats{}, errors.New("vitri: empty temporal query")
	}
	if math.IsNaN(weight) || weight < 0 || weight > 1 {
		return nil, SearchStats{}, errors.New("vitri: temporal weight must be in [0, 1]")
	}
	q := core.Summarize(-1, toVec(frames), core.Options{
		Epsilon: db.opts.Epsilon,
		Seed:    db.opts.Seed,
	})
	qsig, err := temporal.NewSignature(toVec(frames), &q)
	if err != nil {
		return nil, SearchStats{}, err
	}
	matches, stats, err := db.SearchSummary(&q, k, mode)
	if err != nil {
		return nil, stats, err
	}
	bag := make(map[int]float64, len(matches))
	sigs := make(map[int]*temporal.Signature, len(matches))
	cands := make([]temporal.Scored, len(matches))
	for i, m := range matches {
		bag[m.VideoID] = m.Similarity
		sigs[m.VideoID] = db.home(m.VideoID).temporalSig(m.VideoID)
		cands[i] = temporal.Scored{VideoID: m.VideoID, Score: m.Similarity}
	}
	ranked := temporal.Rerank(qsig, cands, sigs, weight)
	out := make([]TemporalMatch, len(ranked))
	for i, r := range ranked {
		out[i] = TemporalMatch{
			VideoID:  r.VideoID,
			Score:    r.Score,
			Bag:      bag[r.VideoID],
			Temporal: r.Temporal,
		}
	}
	return out, stats, nil
}

// toVec reexposes a []Vector as the internal []vec.Vector. Vector is an
// alias of vec.Vector, so this is a type-identity copy-free conversion.
func toVec(frames []Vector) []vec.Vector {
	return frames
}

// temporalSig derives a video's temporal signature so SearchTemporal can
// re-rank it by shot order. Summaries of non-empty videos always carry at
// least one triplet, so derivation cannot fail for a frame-bearing
// ingest; the nil return only protects the registry's invariant
// (registered ⇒ usable signature).
func temporalSig(frames []Vector, s *Summary) *temporal.Signature {
	sig, err := temporal.NewSignature(toVec(frames), s)
	if err != nil {
		return nil
	}
	return sig
}
