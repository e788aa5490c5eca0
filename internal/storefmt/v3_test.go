package storefmt

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

func TestRoundTripV3(t *testing.T) {
	want := testSnapshot()
	var buf bytes.Buffer
	if err := EncodeV3(&buf, want); err != nil {
		t.Fatalf("EncodeV3: %v", err)
	}
	snap, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if snap.Version != Version3 || snap.Epsilon != want.Epsilon || snap.LastSeq != want.LastSeq {
		t.Fatalf("header = (%d, %v, %d), want (%d, %v, %d)",
			snap.Version, snap.Epsilon, snap.LastSeq, want.Version, want.Epsilon, want.LastSeq)
	}
	if !reflect.DeepEqual(snap.Summaries, want.Summaries) {
		t.Fatal("summaries did not round-trip")
	}
	var buf2 bytes.Buffer
	if err := EncodeV3(&buf2, want); err != nil {
		t.Fatalf("EncodeV3 again: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("EncodeV3 is not deterministic")
	}
}

// TestV3DetectsCorruption: the sealed sectioned layout gives v3 the same
// either-valid-or-rejected property as v2, with and without the legacy
// signatures section.
func TestV3DetectsCorruption(t *testing.T) {
	for _, file := range []string{currentGolden, "store-v3-sigsection.golden"} {
		valid := golden(t, file)
		requireFlipsDetected(t, valid)
		requirePrefixesRejected(t, valid)
	}
}

// encodeV3WithSection builds a checksum-intact v3 file holding the meta
// and summaries sections of snap, plus, when extra is non-nil, a section
// under id 3 — where v3 files written by earlier releases kept the
// pre-filter signatures — with the given payload.
func encodeV3WithSection(t *testing.T, snap *Snapshot, extra []byte) []byte {
	t.Helper()
	meta := binary.LittleEndian.AppendUint64(nil, math.Float64bits(snap.Epsilon))
	meta = binary.LittleEndian.AppendUint64(meta, snap.LastSeq)
	var body bytes.Buffer
	if err := encodeSummaries(&body, snap.Summaries); err != nil {
		t.Fatal(err)
	}
	secs := []storeSection{{sectionMeta, meta}, {sectionSummaries, body.Bytes()}}
	if extra != nil {
		secs = append(secs, storeSection{3, extra})
	}
	var buf bytes.Buffer
	if err := encodeSectioned(&buf, MagicV3, Version3, secs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireSameStore fails unless got decodes to exactly snap.
func requireSameStore(t *testing.T, what string, got, snap *Snapshot) {
	t.Helper()
	if got.Version != Version3 || got.Epsilon != snap.Epsilon || got.LastSeq != snap.LastSeq ||
		!reflect.DeepEqual(got.Summaries, snap.Summaries) {
		t.Fatalf("%s: decoded store differs from the one encoded", what)
	}
}

// TestV3SignatureSectionOptional: a v3 file without the signatures
// section loads — the signatures are derived data that the index
// rebuilds on load, never required.
func TestV3SignatureSectionOptional(t *testing.T) {
	snap := testSnapshot()
	got, err := Decode(bytes.NewReader(encodeV3WithSection(t, snap, nil)))
	if err != nil {
		t.Fatalf("Decode without signatures section: %v", err)
	}
	requireSameStore(t, "no signatures section", got, snap)
}

// TestV3RejectsHostileSignatures: section id 3 is no longer parsed, so
// a checksum-intact file carrying semantically wrong signatures there —
// ids the store doesn't contain, duplicate ids, implausible counts, bad
// radii, bytes no signature codec would ever have accepted — loads none
// of them: it decodes to the same store as a file without the section.
// The section's checksum is still verified, so the same bytes altered
// after sealing reject the whole file.
func TestV3RejectsHostileSignatures(t *testing.T) {
	snap := testSnapshot()
	le32b := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	garbage := bytes.Repeat([]byte{0xff}, 37)
	nanRadius := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))

	cases := map[string][]byte{
		"unknown video": bytes.Join([][]byte{le32b(1), le32b(999), garbage}, nil),
		"duplicate video": bytes.Join([][]byte{le32b(2),
			le32b(0), garbage, le32b(0), garbage}, nil),
		"implausible count": bytes.Join([][]byte{le32b(200_000_000), garbage}, nil),
		"truncated entry":   bytes.Join([][]byte{le32b(1), le32b(0), le32b(7)}, nil),
		"nan radius":        bytes.Join([][]byte{le32b(1), le32b(0), le32b(1), nanRadius}, nil),
	}
	for name, sec := range cases {
		file := encodeV3WithSection(t, snap, sec)
		got, err := Decode(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: Decode with a hostile signatures section: %v", name, err)
		}
		requireSameStore(t, name, got, snap)

		at := bytes.Index(file, sec)
		if at < 0 {
			t.Fatalf("%s: section payload not found in the encoded file", name)
		}
		tampered := bytes.Clone(file)
		tampered[at] ^= 0x01
		if _, err := Decode(bytes.NewReader(tampered)); err == nil {
			t.Errorf("%s: signatures section altered after sealing decoded without error", name)
		}
	}
}
