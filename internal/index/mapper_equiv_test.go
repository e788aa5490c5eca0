package index_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vitri/internal/core"
	"vitri/internal/dataset"
	"vitri/internal/index"
	"vitri/internal/refpoint"
	"vitri/internal/vec"
)

// sameResults compares two rankings bit-for-bit.
func sameResults(a, b []index.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].VideoID != b[i].VideoID ||
			math.Float64bits(a[i].Similarity) != math.Float64bits(b[i].Similarity) ||
			math.Float64bits(a[i].Shared) != math.Float64bits(b[i].Shared) {
			return false
		}
	}
	return true
}

// TestMapperEquivalence proves the reference point is a pure access-path
// choice: on one paper-shaped corpus, every mapper {space center, data
// center, Theorem 1's O′, multi-reference iDistance} × signature tier
// on/off × quantized/unquantized leaves returns Float64bits-identical
// rankings for whole-video and image queries in both modes. The range
// scan is lossless under any mapper and the fold reads exact catalog
// triplets, so only the work differs — and O′, the default, never visits
// more candidates than the space center does.
func TestMapperEquivalence(t *testing.T) {
	const eps, k = 0.3, 25
	sums, err := dataset.GenerateSummaries(dataset.DefaultSummaryConfig(1500, 2))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var queries, probes []core.Summary
	for i := 0; i < 4; i++ {
		src := &sums[rng.Intn(len(sums))]
		queries = append(queries, dataset.QuerySummary(src, 1_000_000+i, 0.01, rng))
		// An image probe at a triplet's centre is sure to match it.
		frame := src.Triplets[rng.Intn(len(src.Triplets))].Position
		probes = append(probes, core.Summarize(-1, []vec.Vector{frame}, core.Options{Epsilon: eps}))
	}
	type search func(ix *index.Index, q *core.Summary, mode index.Mode) ([]index.Result, index.SearchStats, error)
	shapes := []struct {
		name string
		qs   []core.Summary
		run  search
	}{
		{"video", queries, func(ix *index.Index, q *core.Summary, mode index.Mode) ([]index.Result, index.SearchStats, error) {
			return ix.Search(q, k, mode)
		}},
		{"image", probes, func(ix *index.Index, q *core.Summary, mode index.Mode) ([]index.Result, index.SearchStats, error) {
			return ix.SearchImage(q, k, mode)
		}},
	}

	// want holds the first configuration's rankings; candidates the
	// per-query Candidates of each mapper (the tiers act after candidate
	// counting, so any tier configuration gives the same count).
	want := make(map[string][]index.Result)
	candidates := make(map[refpoint.Kind]map[string]int)
	for _, kind := range []refpoint.Kind{refpoint.Optimal, refpoint.SpaceCenter, refpoint.DataCenter, refpoint.MultiRef} {
		candidates[kind] = make(map[string]int)
		for _, noSig := range []bool{false, true} {
			for _, unq := range []bool{false, true} {
				cfg := fmt.Sprintf("%v sig-off=%v unquantized=%v", kind, noSig, unq)
				ix, err := index.Build(sums, index.Options{Epsilon: eps, RefKind: kind, DisableSignatures: noSig, UnquantizedLeaves: unq})
				if err != nil {
					t.Fatalf("%s: %v", cfg, err)
				}
				if got := ix.Transform().Kind(); got != kind {
					t.Fatalf("%s: built a %v mapper", cfg, got)
				}
				for _, sh := range shapes {
					for qi := range sh.qs {
						for _, mode := range []index.Mode{index.Naive, index.Composed} {
							key := fmt.Sprintf("%s %d %v", sh.name, qi, mode)
							res, stats, err := sh.run(ix, &sh.qs[qi], mode)
							if err != nil {
								t.Fatalf("%s %s: %v", cfg, key, err)
							}
							if w, ok := want[key]; !ok {
								if len(res) == 0 {
									t.Fatalf("%s: no matches; the comparison would be vacuous", key)
								}
								want[key] = res
							} else if !sameResults(res, w) {
								t.Fatalf("%s %s: ranking diverges\n got: %+v\nwant: %+v", cfg, key, res, w)
							}
							candidates[kind][key] = stats.Candidates
						}
					}
				}
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for key, opt := range candidates[refpoint.Optimal] {
		if sc := candidates[refpoint.SpaceCenter][key]; opt > sc {
			t.Errorf("%s: optimal visits %d candidates, space center %d", key, opt, sc)
		}
	}
}
