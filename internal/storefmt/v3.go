package storefmt

import (
	"bytes"
	"fmt"
	"io"
	"math"
)

// The sectioned formats (v2 and v3) share the sealed layout of
// sections.go and the same two sections; only the magic and version
// differ. v3 is the one format written.

// Section ids. Id 3 held the per-video pre-filter signatures in v3 files
// written by earlier releases; it is no longer written or parsed, and
// decodeSectioned skips it (its checksum still verified) like any other
// unknown id.
const (
	// sectionMeta holds epsilon (float64 bits) and LastSeq (uint64).
	sectionMeta = uint32(1)
	// sectionSummaries holds the count-prefixed summary records.
	sectionSummaries = uint32(2)
)

// EncodeV3 writes snap in the v3 sealed sectioned format: the meta and
// summaries sections. snap.Version is ignored.
func EncodeV3(w io.Writer, snap *Snapshot) error {
	var meta bytes.Buffer
	if err := binWrite(&meta, math.Float64bits(snap.Epsilon)); err != nil {
		return err
	}
	if err := binWrite(&meta, snap.LastSeq); err != nil {
		return err
	}
	var body bytes.Buffer
	if err := encodeSummaries(&body, snap.Summaries); err != nil {
		return err
	}
	return encodeSectioned(w, MagicV3, Version3, []storeSection{
		{sectionMeta, meta.Bytes()},
		{sectionSummaries, body.Bytes()},
	})
}

// decodeSnapshotBody reads everything after a v2 or v3 magic and
// version, verifying every section checksum and the sealed footer. Both
// the meta and the summaries section are required.
func decodeSnapshotBody(r io.Reader, magic string, version uint32) (*Snapshot, error) {
	snap := &Snapshot{Version: version}
	var sawMeta, sawSummaries bool
	err := decodeSectioned(r, magic, version, func(id uint32, sec io.Reader) error {
		switch id {
		case sectionMeta:
			if err := decodeMetaSection(sec, snap); err != nil {
				return err
			}
			sawMeta = true
		case sectionSummaries:
			sums, err := decodeSummaries(sec)
			if err != nil {
				return fmt.Errorf("summaries section: %w", err)
			}
			snap.Summaries = sums
			sawSummaries = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !sawMeta || !sawSummaries {
		return nil, fmt.Errorf("v%d store missing required sections (meta %v, summaries %v)", version, sawMeta, sawSummaries)
	}
	return snap, nil
}

// decodeMetaSection parses the meta payload into snap.
func decodeMetaSection(r io.Reader, snap *Snapshot) error {
	var epsBits uint64
	if err := binRead(r, &epsBits); err != nil {
		return fmt.Errorf("meta section: %w", err)
	}
	if err := binRead(r, &snap.LastSeq); err != nil {
		return fmt.Errorf("meta section: %w", err)
	}
	snap.Epsilon = math.Float64frombits(epsBits)
	if !validEpsilon(snap.Epsilon) {
		return fmt.Errorf("invalid stored epsilon %v", snap.Epsilon)
	}
	return nil
}
