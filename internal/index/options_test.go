package index

import (
	"math/rand"
	"reflect"
	"testing"

	"vitri/internal/btree"
	"vitri/internal/pager"
	"vitri/internal/refpoint"
	"vitri/internal/vec"
)

// TestZeroOptionsMatchGodoc checks every field of Options at its zero
// value against the default its godoc names, plus the zero Mode. A field
// added without a row here fails the test.
func TestZeroOptionsMatchGodoc(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	videos := make([][]vec.Vector, 40)
	for i := range videos {
		videos[i] = makeVideo(r, 8, 3, 20)
	}
	sums := summarizeAll(videos)
	build := func(t *testing.T, o Options) *Index {
		t.Helper()
		ix, err := Build(sums, o)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	zero := build(t, Options{Epsilon: testEps})
	// spaceMid checks the space-center reference sits at the midpoint of
	// the default [0, 1] data space.
	spaceMid := func(t *testing.T) {
		ref := build(t, Options{Epsilon: testEps, RefKind: refpoint.SpaceCenter}).Transform().(*refpoint.Transform).Ref()
		for i, v := range ref {
			if v != 0.5 {
				t.Fatalf("space-center ref[%d] = %v, want 0.5", i, v)
			}
		}
	}
	rows := map[string]func(t *testing.T){
		"Epsilon": func(t *testing.T) {
			if _, err := Build(sums, Options{}); err == nil {
				t.Fatal("Build accepted a zero Epsilon")
			}
		},
		"RefKind": func(t *testing.T) {
			if k := zero.Transform().Kind(); k != refpoint.Optimal {
				t.Fatalf("zero RefKind builds %v, want %v", k, refpoint.Optimal)
			}
		},
		"SpaceLo": spaceMid,
		"SpaceHi": spaceMid,
		"OffsetFraction": func(t *testing.T) {
			explicit := build(t, Options{Epsilon: testEps, OffsetFraction: refpoint.DefaultOffsetFraction})
			if !vec.Equal(zero.Transform().(*refpoint.Transform).Ref(), explicit.Transform().(*refpoint.Transform).Ref()) {
				t.Fatal("zero OffsetFraction places O′ elsewhere than refpoint.DefaultOffsetFraction")
			}
		},
		"Partitions": func(t *testing.T) {
			m := build(t, Options{Epsilon: testEps, RefKind: refpoint.MultiRef}).Transform().(*refpoint.Multi)
			if m.Partitions() != refpoint.MultiPartitions {
				t.Fatalf("zero Partitions gives %d, want refpoint.MultiPartitions (%d)", m.Partitions(), refpoint.MultiPartitions)
			}
		},
		"FillFactor": func(t *testing.T) {
			got, err := zero.TreeStats()
			if err != nil {
				t.Fatal(err)
			}
			want, err := build(t, Options{Epsilon: testEps, FillFactor: btree.DefaultFillFactor}).TreeStats()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("zero FillFactor tree %+v, btree.DefaultFillFactor tree %+v", got, want)
			}
		},
		"NewPager": func(t *testing.T) {
			if _, ok := zero.pg.(*pager.Mem); !ok {
				t.Fatalf("zero NewPager gives a %T, want an in-memory pager", zero.pg)
			}
		},
		"DisableSignatures": func(t *testing.T) {
			for vid, info := range zero.catalog {
				if info.vsig == nil || len(info.tsigs) != len(info.trips) {
					t.Fatalf("video %d has no signatures: the tier is off by default", vid)
				}
			}
		},
		"UnquantizedLeaves": func(t *testing.T) {
			if got, want := zero.recSize(), RecordSizeV3(zero.Dim()); got != want {
				t.Fatalf("leaf record size %d, want the quantized v3 size %d", got, want)
			}
		},
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		row, ok := rows[f.Name]
		if !ok {
			t.Errorf("Options.%s has no zero-value row", f.Name)
			continue
		}
		delete(rows, f.Name)
		t.Run(f.Name, row)
	}
	for name := range rows {
		t.Errorf("row %s names no Options field", name)
	}
	if Mode(0) != Naive {
		t.Errorf("zero Mode is %v, the godoc says %v", Mode(0), Naive)
	}
}
