package vitri

import (
	"errors"
	"fmt"
	"math"

	"vitri/internal/core"
	"vitri/internal/vec"
)

// Query-by-image: a single frame histogram probed against every indexed
// triplet. The frame is summarized exactly like a one-frame video —
// core.Summarize floors the cluster radius at ε·MinRadiusFraction, so
// the probe is a genuine ViTri and rides the B+-tree range machinery,
// the signature pre-filter and the quantized leaf pages unchanged —
// and each video is ranked by its best-matching triplet (see
// index.SearchImage). imagequery_equiv_test.go proves the ranking
// bit-identical to a brute-force per-triplet scan at shard counts
// {1,2,3,8} and under every pre-filter knob.

// ImageSummary summarizes one frame the way SearchImage does: a
// one-frame video under the database's ε and seed, yielding a single
// triplet centered on the frame. Exposed so oracles and offline
// pipelines can reproduce the probe's query side exactly.
func (db *DB) ImageSummary(frame Vector) (Summary, error) {
	if len(frame) == 0 {
		return Summary{}, errors.New("vitri: empty image query")
	}
	for i, v := range frame {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Summary{}, fmt.Errorf("vitri: image query value %d is not finite", i)
		}
	}
	return core.Summarize(-1, []vec.Vector{vec.Vector(frame)}, core.Options{
		Epsilon: db.opts.Epsilon,
		Seed:    db.opts.Seed,
	}), nil
}

// SearchImage returns the k videos whose summaries best explain a single
// frame: each video is scored by its best-matching triplet's estimated
// shared-frame count against the frame's one-frame summary, a value in
// (0, 1]. Results are byte-identical at every shard count and with the
// pre-filter on or off; Stats carries the probe's exact per-query work,
// including PageReads and SignatureSkips.
func (db *DB) SearchImage(frame Vector, k int, mode QueryMode) ([]Match, SearchStats, error) {
	q, err := db.ImageSummary(frame)
	if err != nil {
		return nil, SearchStats{}, err
	}
	return db.scatter(k, true, func(e *engine) ([]Match, SearchStats, error) {
		return e.searchImage(&q, k, mode)
	})
}
