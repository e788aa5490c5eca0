package storefmt

import (
	"bytes"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the store decoder. The contract
// under test: Decode may reject input with an error, but it must never
// panic, and length prefixes in a hostile header must not drive
// allocation (capacity hints are clamped; slices grow only as fast as
// bytes are actually consumed). Accepted input must re-encode as v3 and
// decode back to the same store — a successful parse that cannot round
// trip would mean silent data corruption on the Load path.
func FuzzDecode(f *testing.F) {
	// Every format ever written, so the fuzzer starts from structurally
	// valid files instead of spending its budget rediscovering the magic.
	for _, file := range append([]string{currentGolden}, frozenGoldens...) {
		f.Add(golden(f, file))
	}
	// The remaining seeds are built on the v1 golden: a sectioned file's
	// checksums reject any such edit before the field behind it is read.
	v1 := golden(f, "store-v1.golden")
	// Truncations at structurally interesting offsets: mid-magic, after
	// the header, mid-record.
	for _, n := range []int{0, 4, len(MagicV1), len(MagicV1) + 4, len(MagicV1) + 16, len(v1) / 2, len(v1) - 1} {
		f.Add(v1[:n])
	}
	// A header whose video count claims far more records than the body
	// carries — the over-allocation case the clamp exists for.
	huge := append([]byte(nil), v1...)
	countOff := len(MagicV1) + 4 + 8 // magic, version, epsilon
	for i := 0; i < 4; i++ {
		huge[countOff+i] = 0xff
	}
	f.Add(huge)
	// Wrong magic and wrong version.
	bad := append([]byte(nil), v1...)
	bad[0] ^= 0xff
	f.Add(bad)
	badVer := append([]byte(nil), v1...)
	badVer[len(MagicV1)] = 0x7f
	f.Add(badVer)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !validEpsilon(snap.Epsilon) {
			t.Fatalf("accepted store with epsilon %v", snap.Epsilon)
		}
		var buf bytes.Buffer
		if err := EncodeV3(&buf, snap); err != nil {
			t.Fatalf("re-encode of accepted store failed: %v", err)
		}
		again, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of accepted store failed: %v", err)
		}
		// Compared as bytes, not floats: the encoding is the exact identity
		// of a store, every bit of every coordinate included.
		var buf2 bytes.Buffer
		if err := EncodeV3(&buf2, again); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if again.Epsilon != snap.Epsilon || again.LastSeq != snap.LastSeq || !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("round-trip drift: epsilon %v->%v, last seq %d->%d, videos %d->%d",
				snap.Epsilon, again.Epsilon, snap.LastSeq, again.LastSeq, len(snap.Summaries), len(again.Summaries))
		}
	})
}
