// Package baseline implements the comparators the paper evaluates against:
//
//   - the exact frame-level similarity measure of §3.1 (used to produce
//     ground truth, exactly as the paper does);
//   - sequential scan over a flat paged file of ViTri records;
//   - the keyframe method of Chang/Sull/Lee [5] (percentage of similar
//     keyframes);
//   - the video-signature method of Cheung/Zakhor [6] (random seed
//     frames) as an extension baseline.
package baseline

import (
	"runtime"
	"sort"
	"sync"

	"vitri/internal/vec"
)

// simBlock is the tile edge of the blocked exact-similarity kernel: 64
// frames of 64-dimensional float64 features are 32 KiB, so an x-tile and a
// y-tile together fit comfortably in L2 while the x-tile stays hot across
// the inner sweeps.
const simBlock = 64

// ExactSimilarity computes the §3.1 video similarity over raw frames:
//
//	sim(X,Y) = (|{x∈X : ∃y∈Y d(x,y)≤ε}| + |{y∈Y : ∃x∈X d(x,y)≤ε}|) / (|X|+|Y|)
//
// It is O(|X|·|Y|·n) and intended for ground truth; the pair loop is
// cache-blocked so long videos do not stream Y through cache once per
// frame of X. Pairs whose endpoints are both already marked similar are
// skipped — marks only ever turn on, so skipping cannot change the final
// counts; the tests hold an unblocked reference to compare against.
func ExactSimilarity(x, y []vec.Vector, epsilon float64) float64 {
	if len(x) == 0 || len(y) == 0 {
		return 0
	}
	eps2 := epsilon * epsilon
	xHit := make([]bool, len(x))
	yHit := make([]bool, len(y))
	for xb := 0; xb < len(x); xb += simBlock {
		xe := xb + simBlock
		if xe > len(x) {
			xe = len(x)
		}
		for yb := 0; yb < len(y); yb += simBlock {
			ye := yb + simBlock
			if ye > len(y) {
				ye = len(y)
			}
			for i := xb; i < xe; i++ {
				fx := x[i]
				hit := xHit[i]
				for j := yb; j < ye; j++ {
					if hit && yHit[j] {
						continue
					}
					if vec.Dist2(fx, y[j]) <= eps2 {
						hit = true
						yHit[j] = true
					}
				}
				xHit[i] = hit
			}
		}
	}
	matched := 0
	for _, h := range xHit {
		if h {
			matched++
		}
	}
	for _, h := range yHit {
		if h {
			matched++
		}
	}
	return float64(matched) / float64(len(x)+len(y))
}

// Ranked is one scored video in a baseline result list.
type Ranked struct {
	VideoID    int
	Similarity float64
}

// rankTopK sorts by similarity descending (video id ascending on ties) and
// truncates to k, dropping zero scores.
func rankTopK(scores []Ranked, k int) []Ranked {
	nz := scores[:0]
	for _, s := range scores {
		if s.Similarity > 0 {
			nz = append(nz, s)
		}
	}
	sort.Slice(nz, func(i, j int) bool {
		if nz[i].Similarity != nz[j].Similarity {
			return nz[i].Similarity > nz[j].Similarity
		}
		return nz[i].VideoID < nz[j].VideoID
	})
	if len(nz) > k {
		nz = nz[:k]
	}
	return nz
}

// ExactKNN ranks every corpus video against the query frames with the
// exact measure and returns the top k — the paper's ground-truth
// procedure. Work is spread across CPUs.
func ExactKNN(query []vec.Vector, corpus map[int][]vec.Vector, epsilon float64, k int) []Ranked {
	ids := make([]int, 0, len(corpus))
	for id := range corpus {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	scores := make([]Ranked, len(ids))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				id := ids[i]
				scores[i] = Ranked{VideoID: id, Similarity: ExactSimilarity(query, corpus[id], epsilon)}
			}
		}()
	}
	for i := range ids {
		ch <- i
	}
	close(ch)
	wg.Wait()
	return rankTopK(scores, k)
}
