package vitri

import (
	"io/fs"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vitri/internal/vfs"
)

// gatedSyncFS makes every file's Sync block on the gate channel once
// armed, and signals started when a sync first parks there.
type gatedSyncFS struct {
	vfs.FS
	armed   atomic.Bool
	gate    chan struct{}
	started chan struct{}
}

func (g *gatedSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gatedSyncFile{File: f, fs: g}, nil
}

type gatedSyncFile struct {
	vfs.File
	fs *gatedSyncFS
}

func (f *gatedSyncFile) Sync() error {
	if f.fs.armed.Load() {
		select {
		case f.fs.started <- struct{}{}:
		default:
		}
		<-f.fs.gate
	}
	return f.File.Sync()
}

// TestCloseSyncDoesNotBlockReaders locks down DB.Close's order: the
// journal's final fsync must happen outside the engine lock, so readers
// racing a shutdown are never stalled behind disk latency. With the old
// under-lock Close, db.Len here deadlocks until the gate opens.
func TestCloseSyncDoesNotBlockReaders(t *testing.T) {
	fsys := &gatedSyncFS{
		FS:      vfs.NewMemFS(),
		gate:    make(chan struct{}),
		started: make(chan struct{}, 1),
	}
	db, err := OpenDurable("db", Options{Epsilon: 0.3, Durable: &DurableOptions{FS: fsys}})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	for i := 1; i <= 3; i++ {
		if err := db.AddSummary(crashSummary(i)); err != nil {
			t.Fatal(err)
		}
	}

	fsys.armed.Store(true)
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()

	// Close is parked inside the journal's gated fsync.
	select {
	case <-fsys.started:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never reached the journal fsync")
	}

	lenDone := make(chan int, 1)
	go func() { lenDone <- db.Len() }()
	select {
	case n := <-lenDone:
		if n != 3 {
			t.Fatalf("Len = %d, want 3", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("db.Len blocked while Close was stalled in the journal fsync: the sync is back under db.mu")
	}

	close(fsys.gate)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestFsyncDoesNotBlockReaders: no mutation holds a lock a reader needs
// across its fsync. Each case parks the first Sync its operation reaches,
// then requires the cross-shard reads and a search to return while the
// sync is held; with the view lock still held across AddBatch's group
// commit, Len waits for the gate. Checkpoint holds ckptMu across its
// snapshot sync by design, so that case checks readers only.
func TestFsyncDoesNotBlockReaders(t *testing.T) {
	ops := []struct {
		name string
		run  func(db *DB) error
	}{
		{"AddSummary", func(db *DB) error { return db.AddSummary(crashSummary(100)) }},
		{"AddBatch", func(db *DB) error {
			r := rand.New(rand.NewSource(1))
			videos := make([]Video, 6)
			for i := range videos {
				videos[i] = Video{ID: 100 + i, Frames: stressVideo(r, 3, 6)}
			}
			_, err := db.AddBatch(videos)
			return err
		}},
		{"Remove", func(db *DB) error { return db.Remove(3) }},
		{"Checkpoint", (*DB).Checkpoint},
	}
	for _, n := range []int{1, 3} {
		for _, op := range ops {
			t.Run(shardName(n)+"/"+op.name, func(t *testing.T) {
				fsys := &gatedSyncFS{
					FS:      vfs.NewMemFS(),
					gate:    make(chan struct{}),
					started: make(chan struct{}, 1),
				}
				db, err := OpenDurable("db", Options{Epsilon: 0.3, Shards: n, Durable: &DurableOptions{FS: fsys}})
				if err != nil {
					t.Fatalf("OpenDurable: %v", err)
				}
				defer db.Close()
				for id := 1; id <= 6; id++ {
					if err := db.AddSummary(crashSummary(id)); err != nil {
						t.Fatal(err)
					}
				}
				q := crashSummary(2)
				if _, _, err := db.SearchSummary(&q, 3, Composed); err != nil {
					t.Fatal(err)
				}

				fsys.armed.Store(true)
				release := sync.OnceFunc(func() { close(fsys.gate) })
				var opErr error
				opDone := make(chan struct{})
				go func() {
					defer close(opDone)
					opErr = op.run(db)
				}()
				defer func() {
					release()
					<-opDone
				}()
				select {
				case <-fsys.started:
				case <-time.After(5 * time.Second):
					t.Fatalf("%s never reached an fsync", op.name)
				}

				readers := []struct {
					name string
					read func() error
				}{
					{"Len", func() error { db.Len(); return nil }},
					{"Triplets", func() error { db.Triplets(); return nil }},
					{"Stats", func() error { _, err := db.Stats(); return err }},
					{"DriftAngle", func() error { db.DriftAngle(); return nil }},
					{"SearchSummary", func() error { _, _, err := db.SearchSummary(&q, 3, Composed); return err }},
				}
				for _, rd := range readers {
					got := make(chan error, 1)
					go func() { got <- rd.read() }()
					select {
					case err := <-got:
						if err != nil {
							t.Fatalf("%s during a parked %s fsync: %v", rd.name, op.name, err)
						}
					case <-time.After(5 * time.Second):
						t.Fatalf("%s blocked while %s was parked in an fsync: a lock it needs is held across the sync", rd.name, op.name)
					}
				}
				release()
				<-opDone
				if opErr != nil {
					t.Fatalf("%s: %v", op.name, opErr)
				}
			})
		}
	}
}
