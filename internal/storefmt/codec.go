// Package storefmt defines the on-disk summary store formats and the
// write discipline that keeps them crash-safe. It reads three formats and
// writes one.
//
//   - v1 ("VITRIDB1") is the legacy single-stream layout: magic, version,
//     epsilon, then the summary records. It carries no checksums; a torn
//     write is detectable only as a decode error. Read only.
//   - v2 ("VITRIDB2") is the sealed sectioned layout (see sections.go):
//     meta and summaries sections, each with a CRC32C of its payload,
//     followed by a sealed footer holding a whole-file CRC32C and the
//     total length. A sectioned file either decodes with every checksum
//     intact or is rejected — there is no silent partial read. Read only.
//   - v3 ("VITRIDB3") is the same sealed layout under its own magic, and
//     the only format written (EncodeV3). It stores the summaries and
//     nothing derived from them: the index rebuilds every signature from
//     the summaries on load. v3 files written by earlier releases also
//     carry a signatures section (id 3); readers skip it like any unknown
//     section.
//
// Decode sniffs the magic and reads any format, which is what makes
// migration transparent: a durable DB opened over a v1 or v2 snapshot
// loads it and writes v3 at its next checkpoint.
//
// Every format shares one per-summary record codec (EncodeSummary /
// DecodeSummary), which the delta journal also uses for its Add records,
// so a summary has exactly one byte representation everywhere.
//
// All decode paths treat input as hostile: length prefixes are bounded
// before they drive allocation, floats are checked finite, and invalid
// geometry (non-positive radius or count) is rejected before a ViTri is
// constructed — core.NewViTri panics on bad input, so validation must
// come first.
package storefmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"vitri/internal/core"
)

// Format magics. All are 8 bytes so the header shape is shared.
const (
	MagicV1 = "VITRIDB1"
	MagicV2 = "VITRIDB2"
	MagicV3 = "VITRIDB3"
)

// Version numbers stored after the magic.
const (
	Version1 = uint32(1)
	Version2 = uint32(2)
	Version3 = uint32(3)
)

// maxReasonable bounds untrusted counts (videos, triplets) — far above
// any real store, far below what could drive memory exhaustion when
// multiplied by the per-record minimum size.
const maxReasonable = 100_000_000

// Snapshot is a decoded store of any version.
type Snapshot struct {
	// Version is the format the bytes were decoded from (Version1–
	// Version3); writers ignore it and always emit Version3.
	Version uint32
	// Epsilon is the similarity threshold the summaries were built at.
	Epsilon float64
	// LastSeq is the journal sequence number folded into this snapshot;
	// recovery skips journal records with Seq <= LastSeq. Always 0 for
	// v1 files, which predate the journal.
	LastSeq uint64
	// Summaries is the store's contents.
	Summaries []core.Summary
}

// EncodeSummary writes one summary record: video id, frame count,
// triplet count, then each triplet as (count, radius, dim, position).
func EncodeSummary(w io.Writer, s *core.Summary) error {
	if err := binWrite(w, uint32(s.VideoID)); err != nil {
		return err
	}
	if err := binWrite(w, uint32(s.FrameCount)); err != nil {
		return err
	}
	if err := binWrite(w, uint32(len(s.Triplets))); err != nil {
		return err
	}
	for t := range s.Triplets {
		tp := &s.Triplets[t]
		if err := binWrite(w, uint32(tp.Count)); err != nil {
			return err
		}
		if err := binWrite(w, math.Float64bits(tp.Radius)); err != nil {
			return err
		}
		if err := binWrite(w, uint32(len(tp.Position))); err != nil {
			return err
		}
		for _, v := range tp.Position {
			if err := binWrite(w, math.Float64bits(v)); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodeSummary reads one summary record, validating every field before
// constructing triplets (NewViTri panics on invalid geometry, so bad
// bytes must be rejected here).
func DecodeSummary(r io.Reader) (core.Summary, error) {
	var vid, frames, nt uint32
	if err := binRead(r, &vid); err != nil {
		return core.Summary{}, err
	}
	if err := binRead(r, &frames); err != nil {
		return core.Summary{}, err
	}
	if err := binRead(r, &nt); err != nil {
		return core.Summary{}, err
	}
	if nt > maxReasonable {
		return core.Summary{}, fmt.Errorf("implausible triplet count %d", nt)
	}
	s := core.Summary{VideoID: int(vid), FrameCount: int(frames), Triplets: make([]core.ViTri, 0, capHint(nt))}
	for t := uint32(0); t < nt; t++ {
		var cnt, dim uint32
		var radBits uint64
		if err := binRead(r, &cnt); err != nil {
			return core.Summary{}, err
		}
		if err := binRead(r, &radBits); err != nil {
			return core.Summary{}, err
		}
		if err := binRead(r, &dim); err != nil {
			return core.Summary{}, err
		}
		if dim == 0 || dim > 1<<20 {
			return core.Summary{}, fmt.Errorf("implausible dimensionality %d", dim)
		}
		pos := make([]float64, 0, capHint(dim))
		for d := uint32(0); d < dim; d++ {
			var bits uint64
			if err := binRead(r, &bits); err != nil {
				return core.Summary{}, err
			}
			v := math.Float64frombits(bits)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return core.Summary{}, fmt.Errorf("non-finite position coordinate in triplet %d", t)
			}
			pos = append(pos, v)
		}
		radius := math.Float64frombits(radBits)
		if !(radius > 0) || math.IsInf(radius, 0) || cnt == 0 {
			return core.Summary{}, fmt.Errorf("invalid triplet (radius %v, count %d)", radius, cnt)
		}
		s.Triplets = append(s.Triplets, core.NewViTri(pos, radius, int(cnt)))
	}
	return s, nil
}

// encodeSummaries writes a count-prefixed summary sequence.
func encodeSummaries(w io.Writer, sums []core.Summary) error {
	if err := binWrite(w, uint32(len(sums))); err != nil {
		return err
	}
	for i := range sums {
		if err := EncodeSummary(w, &sums[i]); err != nil {
			return err
		}
	}
	return nil
}

// decodeSummaries reads a count-prefixed summary sequence. Capacity
// hints are clamped: header counts are untrusted until the records
// behind them have actually been read, and a tiny header claiming 100M
// videos must not pre-allocate gigabytes.
func decodeSummaries(r io.Reader) ([]core.Summary, error) {
	var count uint32
	if err := binRead(r, &count); err != nil {
		return nil, err
	}
	if count > maxReasonable {
		return nil, fmt.Errorf("implausible video count %d", count)
	}
	sums := make([]core.Summary, 0, capHint(count))
	for i := uint32(0); i < count; i++ {
		s, err := DecodeSummary(r)
		if err != nil {
			return nil, err
		}
		sums = append(sums, s)
	}
	return sums, nil
}

// validEpsilon rejects non-positive, infinite and NaN thresholds.
// !(eps > 0) rather than eps <= 0: NaN compares false both ways and must
// be rejected here, not fed to the summarizer.
func validEpsilon(eps float64) bool {
	return eps > 0 && !math.IsInf(eps, 0)
}

// decodeV1Body reads everything after the v1 magic and version.
func decodeV1Body(r io.Reader) (*Snapshot, error) {
	var epsBits uint64
	if err := binRead(r, &epsBits); err != nil {
		return nil, err
	}
	eps := math.Float64frombits(epsBits)
	if !validEpsilon(eps) {
		return nil, fmt.Errorf("invalid stored epsilon %v", eps)
	}
	sums, err := decodeSummaries(r)
	if err != nil {
		return nil, err
	}
	return &Snapshot{Version: Version1, Epsilon: eps, Summaries: sums}, nil
}

// Decode sniffs the magic and reads any format. Sectioned (v2/v3) input
// is fully checksum-verified; any mismatch is an error.
func Decode(r io.Reader) (*Snapshot, error) {
	magic := make([]byte, len(MagicV1))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, err
	}
	var version uint32
	if err := binRead(r, &version); err != nil {
		return nil, err
	}
	switch {
	case string(magic) == MagicV1:
		if version != Version1 {
			return nil, fmt.Errorf("unsupported v1 store version %d", version)
		}
		return decodeV1Body(r)
	case string(magic) == MagicV2:
		if version != Version2 {
			return nil, fmt.Errorf("unsupported v2 store version %d", version)
		}
		return decodeSnapshotBody(r, MagicV2, Version2)
	case string(magic) == MagicV3:
		if version != Version3 {
			return nil, fmt.Errorf("unsupported v3 store version %d", version)
		}
		return decodeSnapshotBody(r, MagicV3, Version3)
	}
	return nil, errors.New("not a vitri summary store")
}

func binWrite(w io.Writer, v interface{}) error { return binary.Write(w, binary.LittleEndian, v) }
func binRead(r io.Reader, v interface{}) error  { return binary.Read(r, binary.LittleEndian, v) }

// capHint bounds an untrusted length prefix to a sane preallocation.
func capHint(n uint32) int {
	const maxPrealloc = 4096
	if n > maxPrealloc {
		return maxPrealloc
	}
	return int(n)
}
