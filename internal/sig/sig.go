// Package sig implements the memory-resident signature pre-filter tier:
// compact per-video and per-triplet bit signatures built by quantizing
// triplet centers onto a coarse per-dimension grid, consulted before the
// exact sphere-intersection math. A signature mismatch is a proof — not a
// heuristic — that two triplet spheres are disjoint, so a pruned
// candidate contributes exactly zero shared frames and skipping it cannot
// change any returned result (see DESIGN.md §14 for the full argument).
//
// Quantization grid. Each dimension is cut into Cells half-open cells of
// width w = CellWidth(ε): cell(x) = clamp(floor(x/w), 0, Cells-1). A
// signature is Cells bitplanes of ⌈dim/64⌉ words each; bit d of plane c
// means "some folded-in center occupies cell c in dimension d". A single
// center yields a point signature (exactly one bit per dimension); a
// video's signature is the bitwise OR of its triplets' point signatures
// plus the maximum triplet radius. At dim 64 a signature is Cells·64 =
// 256 bits plus one float — the memory-resident tier costs ~40 bytes per
// triplet.
//
// Pruning bound. Let g_d be the cell distance in dimension d between a
// query center's cell and the nearest occupied cell of a target
// signature. Whenever g_d ≥ 2, the clamped grid still guarantees
// |q_d - t_d| > (g_d - 1)·w (the two points are separated by g_d - 1
// whole cells), so the squared Euclidean distance is at least
// w²·Σ(g_d-1)² = w²·GapScore. If that lower bound exceeds
// (R_q + R_t + margin)², the spheres cannot intersect and the pair is
// safe to skip. The margin absorbs the one source of floating-point
// slack — rounding inside floor(x/w) — which is bounded by a few ulps,
// ten orders of magnitude below 1e-9 at these scales.
package sig

import (
	"math"
	"math/bits"

	"vitri/internal/core"
	"vitri/internal/vec"
)

// Cells is the number of quantization cells per dimension. The SWAR gap
// kernel below is written for exactly 4 planes.
const Cells = 4

// margin is added to the radius sum before comparing against the grid
// distance bound, so floating-point rounding in cell assignment can
// never turn a true intersection into a prune.
const margin = 1e-9

// CellWidth returns the grid cell width for summarization threshold ε.
// ε/3 places typical triplet radii (a fraction of ε) within one or two
// cells, which is what gives the gap bound its discriminating power; it
// depends only on ε, never on the data, so every shard of a database
// derives the identical grid.
func CellWidth(epsilon float64) float64 { return epsilon / 3 }

// Words returns the number of 64-bit words per bitplane for dim
// dimensions.
func Words(dim int) int { return (dim + 63) / 64 }

// Signature is a quantized center set: Cells bitplanes over the
// dimensions plus the largest radius folded in. The zero Signature is
// not usable; construct with New, FromTriplet, or FromSummary.
type Signature struct {
	// Planes[c] has bit d set when a folded-in center occupies cell c in
	// dimension d. All planes share one word count.
	Planes [Cells][]uint64
	// MaxRadius is the largest radius folded in via Add.
	MaxRadius float64
}

// New returns an empty signature sized for dim dimensions.
func New(dim int) *Signature {
	var s Signature
	w := Words(dim)
	for c := range s.Planes {
		s.Planes[c] = make([]uint64, w)
	}
	return &s
}

// Words returns the per-plane word count.
func (s *Signature) Words() int { return len(s.Planes[0]) }

// cellOf quantizes one coordinate onto the clamped grid.
func cellOf(v, w float64) int {
	c := int(math.Floor(v / w))
	if c < 0 {
		c = 0
	}
	if c >= Cells {
		c = Cells - 1
	}
	return c
}

// Add folds one center and its radius into the signature. w is the grid
// width from CellWidth; pos must fit the dimensionality the signature
// was sized for.
func (s *Signature) Add(pos vec.Vector, radius, w float64) {
	for d, v := range pos {
		s.Planes[cellOf(v, w)][d/64] |= 1 << (uint(d) % 64)
	}
	if radius > s.MaxRadius {
		s.MaxRadius = radius
	}
}

// FromTriplet builds the point signature of a single center: exactly one
// bit per dimension, MaxRadius = radius.
func FromTriplet(pos vec.Vector, radius, w float64) *Signature {
	s := New(len(pos))
	s.Add(pos, radius, w)
	return s
}

// FromSummary builds a video's signature: the union of its triplets'
// point signatures plus the maximum triplet radius. Summaries with no
// triplets yield an all-zero signature that prunes nothing.
func FromSummary(sum *core.Summary, dim int, w float64) *Signature {
	s := New(dim)
	for i := range sum.Triplets {
		t := &sum.Triplets[i]
		s.Add(t.Position, t.Radius, w)
	}
	return s
}

// GapScore returns Σ_d (g_d - 1)² over dimensions where the cell gap
// g_d ≥ 2, where g_d is the distance from q's occupied cell to the
// nearest occupied cell of t in dimension d. q must be a point signature
// (one occupied cell per dimension); t may be any signature. Signatures
// of different widths score 0 (no pruning) rather than reading out of
// bounds. A dimension in which t has no occupied cell at all scores as
// maximally distant, so the bound is only meaningful against signatures
// that folded in at least one center — Add sets a bit in every
// dimension per center, and empty signatures belong to videos with no
// records to prune.
//
// The kernel is branch-free SWAR over the four planes: gap2 collects
// dimensions at cell distance ≥ 2, gap3 those at distance 3 (the maximum
// on a 4-cell grid), so the per-word contribution is
// popcount(gap2 \ gap3) + 4·popcount(gap3).
func GapScore(q, t *Signature) int {
	words := q.Words()
	if words != t.Words() {
		return 0
	}
	score := 0
	for wd := 0; wd < words; wd++ {
		p0, p1, p2, p3 := t.Planes[0][wd], t.Planes[1][wd], t.Planes[2][wd], t.Planes[3][wd]
		q0, q1, q2, q3 := q.Planes[0][wd], q.Planes[1][wd], q.Planes[2][wd], q.Planes[3][wd]
		// A query bit in cell c is at gap ≥ 2 when cells c-1..c+1 are all
		// empty in t, and at gap 3 when cells c-2..c+2 are all empty.
		gap2 := (q0 & ^(p0 | p1)) | (q1 & ^(p0 | p1 | p2)) | (q2 & ^(p1 | p2 | p3)) | (q3 & ^(p2 | p3))
		gap3 := (q0 & ^(p0 | p1 | p2)) | (q3 & ^(p1 | p2 | p3))
		score += bits.OnesCount64(gap2&^gap3) + 4*bits.OnesCount64(gap3)
	}
	return score
}

// Prune reports whether a gap score proves two spheres disjoint:
// w²·score > (radiusSum + margin)², where radiusSum is the sum of the
// two sphere radii. A true return guarantees the exact center distance
// exceeds the radius sum, i.e. the intersection volume — and therefore
// the shared-frame estimate — is exactly zero.
func Prune(score int, radiusSum, w float64) bool {
	th := (radiusSum + margin) / w
	return float64(score) > th*th
}
