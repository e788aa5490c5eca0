// Package temporal implements the paper's stated future work (§7):
// bringing temporal order back into ViTri retrieval. The bag-of-clusters
// measure is deliberately order-blind; two videos composed of the same
// shots in a different order score identically. This package aligns the
// *cluster label sequences* of two videos and scores how much of the
// similarity is order-preserving, so callers can re-rank candidate sets
// returned by the index.
//
// A video's temporal signature is the sequence of its frames' cluster
// assignments, run-length compressed (one symbol per maximal run — i.e.
// one symbol per shot occurrence). Two symbols match when their triplets'
// hyperspheres intersect (the same notion of "similar" the index uses).
// The alignment is a weighted longest-common-subsequence over the two
// symbol sequences, with each matched pair contributing the smaller of
// the two run lengths — an order-preserving analogue of the shared-frame
// estimate.
package temporal

import (
	"fmt"

	"vitri/internal/core"
	"vitri/internal/vec"
)

// Signature is a video's temporal signature: the sequence of shot
// occurrences, each referring to one triplet of the video's summary.
type Signature struct {
	VideoID int
	// Runs[i] is one maximal run of frames assigned to one cluster.
	Runs []Run
	// Triplets aliases the summary's triplets for matching.
	Triplets []core.ViTri
	// FrameCount is the total number of frames.
	FrameCount int
}

// Run is one maximal run of consecutive frames in the same cluster.
type Run struct {
	Triplet int // index into Triplets
	Length  int // number of frames in the run
}

// NewSignature derives the temporal signature of a video from its frames
// and its summary: every frame is assigned to the summary triplet whose
// center is nearest, and consecutive equal assignments are merged into
// runs. The summary need not have been produced from exactly these frames
// (e.g. the frames may be a distorted copy); assignment is by proximity.
func NewSignature(frames []vec.Vector, s *core.Summary) (*Signature, error) {
	if len(s.Triplets) == 0 {
		return nil, fmt.Errorf("temporal: summary of video %d has no triplets", s.VideoID)
	}
	sig := &Signature{VideoID: s.VideoID, Triplets: s.Triplets, FrameCount: len(frames)}
	prev := -1
	for _, f := range frames {
		if len(f) != s.Triplets[0].Dim() {
			return nil, fmt.Errorf("temporal: frame dimensionality %d, summary is %d", len(f), s.Triplets[0].Dim())
		}
		best, bestD := 0, vec.Dist2(f, s.Triplets[0].Position)
		for t := 1; t < len(s.Triplets); t++ {
			if d := vec.Dist2(f, s.Triplets[t].Position); d < bestD {
				best, bestD = t, d
			}
		}
		if best == prev {
			sig.Runs[len(sig.Runs)-1].Length++
			continue
		}
		sig.Runs = append(sig.Runs, Run{Triplet: best, Length: 1})
		prev = best
	}
	return sig, nil
}

// symbolsMatch reports whether two runs' triplets are similar: their
// hyperspheres intersect (same criterion as the index's zero-similarity
// pruning, §4.2 case 1).
func symbolsMatch(a, b *core.ViTri) bool {
	d := vec.Dist(a.Position, b.Position)
	return d < a.Radius+b.Radius
}

// Alignment is the result of aligning two signatures.
type Alignment struct {
	// SharedFrames is the order-preserving shared-frame count: the sum of
	// min(run lengths) over the aligned run pairs.
	SharedFrames int
	// Pairs are the aligned run indices (i in a, j in b), in order.
	Pairs [][2]int
}

// Align computes the maximum-weight order-preserving matching of two
// signatures' runs (a weighted LCS): matched run pairs must appear in the
// same relative order in both videos, and each matched pair contributes
// min(lenA, lenB) frames. O(len(a.Runs)·len(b.Runs)).
func Align(a, b *Signature) Alignment {
	n, m := len(a.Runs), len(b.Runs)
	if n == 0 || m == 0 {
		return Alignment{}
	}
	// dp[i][j] = best weight using runs a[:i], b[:j].
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
	}
	for i := 1; i <= n; i++ {
		ra := &a.Runs[i-1]
		ta := &a.Triplets[ra.Triplet]
		for j := 1; j <= m; j++ {
			best := dp[i-1][j]
			if dp[i][j-1] > best {
				best = dp[i][j-1]
			}
			rb := &b.Runs[j-1]
			if symbolsMatch(ta, &b.Triplets[rb.Triplet]) {
				w := ra.Length
				if rb.Length < w {
					w = rb.Length
				}
				if v := dp[i-1][j-1] + w; v > best {
					best = v
				}
			}
			dp[i][j] = best
		}
	}
	// Traceback.
	var pairs [][2]int
	i, j := n, m
	for i > 0 && j > 0 {
		switch {
		case dp[i][j] == dp[i-1][j]:
			i--
		case dp[i][j] == dp[i][j-1]:
			j--
		default:
			pairs = append(pairs, [2]int{i - 1, j - 1})
			i--
			j--
		}
	}
	// Reverse into forward order.
	for l, r := 0, len(pairs)-1; l < r; l, r = l+1, r-1 {
		pairs[l], pairs[r] = pairs[r], pairs[l]
	}
	return Alignment{SharedFrames: dp[n][m], Pairs: pairs}
}

// Similarity is the order-preserving analogue of the §3.1 measure: twice
// the aligned shared-frame count over the total frames, in [0, 1].
func Similarity(a, b *Signature) float64 {
	if a.FrameCount == 0 || b.FrameCount == 0 {
		return 0
	}
	al := Align(a, b)
	sim := 2 * float64(al.SharedFrames) / float64(a.FrameCount+b.FrameCount)
	if sim > 1 {
		return 1
	}
	return sim
}

// Rerank reorders candidate video ids by blending the index's order-blind
// similarity with the temporal similarity: score = (1-w)·bag + w·temporal.
// Candidates missing from sigs keep their bag score (w is not applied).
// It returns a new slice sorted by blended score descending.
func Rerank(query *Signature, candidates []Scored, sigs map[int]*Signature, w float64) []Scored {
	if w < 0 {
		w = 0
	} else if w > 1 {
		w = 1
	}
	out := make([]Scored, len(candidates))
	copy(out, candidates)
	for i := range out {
		sig := sigs[out[i].VideoID]
		if sig == nil {
			continue
		}
		t := Similarity(query, sig)
		out[i].Score = float64((1-w)*out[i].Score) + float64(w*t)
		out[i].Temporal = t
	}
	sortScored(out)
	return out
}

// Scored is one candidate with its (possibly blended) score.
type Scored struct {
	VideoID  int
	Score    float64
	Temporal float64 // the temporal similarity component, set by Rerank
}

// sortScored orders by score descending, id ascending on ties (insertion
// sort: candidate lists are K-sized).
func sortScored(s []Scored) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && (s[j].Score < v.Score || (s[j].Score == v.Score && s[j].VideoID > v.VideoID)) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
