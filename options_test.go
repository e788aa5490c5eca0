package vitri

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"vitri/internal/refpoint"
)

// TestZeroOptionsMatchGodoc checks every field of Options at its zero
// value against the default its godoc names, plus the two defaults with
// no field: the reference point (Theorem 1's O′) and the zero QueryMode
// (Naive). A field added without a row here fails the test.
func TestZeroOptionsMatchGodoc(t *testing.T) {
	videos := ingestCorpus(92, 12)
	// drifted holds videos stretched along one axis, to move Φ1 after the
	// index is built.
	r := rand.New(rand.NewSource(93))
	drifted := make([]Video, 8)
	for i := range drifted {
		frames := synthVideo(r, 8, 2, 20)
		for _, f := range frames {
			f[3] += r.NormFloat64() * 0.4
		}
		drifted[i] = Video{ID: 500 + i, Frames: frames}
	}
	// built is a zero-option database over videos with its index built.
	built := func(t *testing.T) *DB {
		t.Helper()
		db := New(Options{Epsilon: 0.3})
		if _, err := db.AddBatch(videos); err != nil {
			t.Fatal(err)
		}
		if err := db.forceBuild(); err != nil {
			t.Fatal(err)
		}
		return db
	}
	rows := map[string]func(t *testing.T){
		"Epsilon": func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("New accepted a zero Epsilon")
				}
			}()
			New(Options{})
		},
		"Seed": func(t *testing.T) {
			a, b := built(t), built(t)
			if a.Seed() != 0 || !bytes.Equal(storeBytes(t, a), storeBytes(t, b)) {
				t.Fatal("the zero seed does not give a deterministic database")
			}
		},
		"MaxDriftAngle": func(t *testing.T) {
			db := built(t)
			for _, v := range drifted {
				if err := db.Add(v.ID, v.Frames); err != nil {
					t.Fatal(err)
				}
			}
			// A rebuild refits O′ and leaves the drift at exactly 0.
			if db.DriftAngle() == 0 {
				t.Fatal("zero MaxDriftAngle rebuilt the index automatically")
			}
		},
		"NewPager": func(t *testing.T) {
			// The engine passes a nil factory through; index.Options'
			// own zero-value row pins that nil means in-memory pages.
			db := built(t)
			if db.shards[0].opts.NewPager != nil {
				t.Fatal("zero NewPager was replaced")
			}
			if _, err := db.Search(videos[0].Frames, 3); err != nil {
				t.Fatal(err)
			}
		},
		"Durable": func(t *testing.T) {
			if db := built(t); db.Durable() || db.DurabilityStats().Enabled {
				t.Fatal("New without Durable options made a durable database")
			}
		},
		"Shards": func(t *testing.T) {
			if n := len(built(t).shards); n != 1 {
				t.Fatalf("zero Shards gives %d shards, want 1", n)
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
	if k := built(t).shards[0].ix.Transform().Kind(); k != refpoint.Optimal {
		t.Errorf("default reference point is %v, want %v", k, refpoint.Optimal)
	}
	if QueryMode(0) != Naive {
		t.Errorf("zero QueryMode is %v, the godoc says %v", QueryMode(0), Naive)
	}
}
