// Command vitriserve loads a corpus (vitrigen .gob), a saved summary
// store (vitri .Save file) or a durable store directory, builds a ViTri
// database once, and serves KNN queries over HTTP/JSON until terminated.
//
// Endpoints (see internal/server): POST /search (whole-video KNN),
// /search/image (one frame histogram, videos ranked by best-matching
// triplet), /search/temporal (frame sequence, order-aware blended
// ranking), /insert, /remove, /checkpoint and GET /healthz, /stats.
// Load shedding answers 429 +
// Retry-After once -max-inflight requests are active; SIGINT/SIGTERM
// trigger a graceful shutdown that drains in-flight queries before the
// journal and page store close.
//
// Durability: with -journal <dir>, every insert and remove is journaled
// to <dir>/journal.wal and fsynced before the request is acknowledged;
// restarts recover the store from <dir>/snapshot.vitri plus the journal,
// truncating any torn tail a crash left. -shards N (default 1) runs the
// shard-per-core engine: mutations route to one of N independent shards
// by video id, searches scatter and merge with results byte-identical to
// the single engine, and a durable store keeps one journal+snapshot per
// shard under a cross-shard manifest (the shard count is fixed when the
// store is created; later starts must pass the same N, or 0 to adopt
// whatever the manifest records). -checkpoint-every <N> folds the
// journal into a fresh snapshot whenever it reaches N operations (0 =
// manual only, via POST /checkpoint); the fold runs concurrently with
// mutations (two-phase checkpoint, see DESIGN.md §12), and after a
// failed auto-checkpoint further attempts pause for -checkpoint-cooldown
// (the failure and its time appear in /stats). A -corpus given alongside
// -journal bootstraps an empty durable store and is ignored on later
// starts.
//
// Example:
//
//	vitrigen -scale 0.02 -o corpus.gob
//	vitriserve -corpus corpus.gob -addr :8080
//	vitriserve -corpus corpus.gob -journal /var/lib/vitri -checkpoint-every 1000
//	curl -s localhost:8080/healthz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"vitri"
	"vitri/internal/dataset"
	"vitri/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		corpusPath  = flag.String("corpus", "", "corpus file from vitrigen (summarized at startup)")
		dbPath      = flag.String("db", "", "summary store written by vitri Save (loads without re-summarizing)")
		epsilon     = flag.Float64("epsilon", 0.3, "frame similarity threshold (ignored with -db: the store fixes it)")
		seed        = flag.Int64("seed", 1, "summarization seed")
		k           = flag.Int("k", 10, "default result count per query")
		maxInflight = flag.Int("max-inflight", 64, "admission limit for /search, /insert and /remove")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request deadline (0 = none)")
		drain       = flag.Duration("drain", 30*time.Second, "shutdown drain budget")
		journalDir  = flag.String("journal", "", "durable store directory: mutations are journaled and fsynced; restarts recover snapshot+journal")
		ckptEvery   = flag.Int("checkpoint-every", 0, "fold the journal into a snapshot every N operations (0 = only on POST /checkpoint)")
		ckptCool    = flag.Duration("checkpoint-cooldown", 30*time.Second, "suppress automatic checkpoints this long after one fails (negative = retry immediately)")
		shards      = flag.Int("shards", 1, "shard-per-core engine: shard count (an existing durable store fixes it, pass 0 to adopt)")
	)
	flag.Parse()
	switch {
	case *journalDir != "" && *dbPath != "":
		fatalf("-journal and -db are mutually exclusive (a durable directory carries its own snapshot)")
	case *journalDir == "" && (*corpusPath == "") == (*dbPath == ""):
		fatalf("exactly one of -corpus and -db is required (or -journal for a durable store)")
	case *ckptEvery < 0:
		fatalf("-checkpoint-every must be non-negative")
	case *ckptEvery > 0 && *journalDir == "":
		fatalf("-checkpoint-every needs -journal")
	case *shards < 0:
		fatalf("-shards must be non-negative")
	case *shards == 0 && *journalDir == "":
		fatalf("-shards 0 (adopt from store) needs -journal")
	}

	opts := vitri.Options{
		Epsilon: *epsilon,
		Seed:    *seed,
		Shards:  *shards,
	}

	db, err := loadDB(*corpusPath, *dbPath, *journalDir, opts)
	if err != nil {
		fatalf("%v", err)
	}
	log.Printf("vitriserve: %d videos, %d triplets (epsilon %g)", db.Len(), db.Triplets(), db.Epsilon())
	if db.Durable() {
		ds := db.DurabilityStats()
		log.Printf("vitriserve: durable store %s (journal depth %d, snapshot seq %d)", ds.Dir, ds.Journal.Depth, ds.SnapshotSeq)
	}

	srv := server.New(db, server.Config{
		DefaultK:           *k,
		MaxInFlight:        *maxInflight,
		RequestTimeout:     *timeout,
		CheckpointEvery:    *ckptEvery,
		CheckpointCooldown: *ckptCool,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("vitriserve: listening on %s", *addr)

	select {
	case err := <-errCh:
		fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	log.Printf("vitriserve: shutting down (drain budget %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("vitriserve: http shutdown: %v", err)
	}
	if err := srv.Close(shutdownCtx); err != nil {
		fatalf("close: %v", err)
	}
	log.Printf("vitriserve: drained, page store closed")
}

// loadDB builds the database from whichever source was given.
func loadDB(corpusPath, dbPath, journalDir string, opts vitri.Options) (*vitri.DB, error) {
	if journalDir != "" {
		return openDurable(corpusPath, journalDir, opts)
	}
	if dbPath != "" {
		opts.Epsilon = 0 // take ε from the store
		db, err := vitri.Load(dbPath, opts)
		if err != nil {
			return nil, err
		}
		return db, nil
	}
	c, err := dataset.Load(corpusPath)
	if err != nil {
		return nil, err
	}
	if len(c.Videos) == 0 {
		return nil, errors.New("corpus has no videos")
	}
	db := vitri.New(opts)
	for i := range c.Videos {
		v := &c.Videos[i]
		if err := db.Add(v.ID, v.Frames); err != nil {
			return nil, fmt.Errorf("add video %d: %w", v.ID, err)
		}
	}
	if err := warmIndex(db, c.Videos[0].Frames, opts.Seed); err != nil {
		return nil, err
	}
	return db, nil
}

// openDurable opens (or creates) the durable store, bootstrapping it
// from the corpus when the store is empty and one was given.
func openDurable(corpusPath, journalDir string, opts vitri.Options) (*vitri.DB, error) {
	// An existing store fixes ε; only a fresh one takes it from the flag.
	// A flat store is marked by its snapshot, a sharded one by the
	// MANIFEST that records its layout.
	if _, err := os.Stat(filepath.Join(journalDir, "snapshot.vitri")); err == nil {
		opts.Epsilon = 0
	} else if _, err := os.Stat(filepath.Join(journalDir, "MANIFEST")); err == nil {
		opts.Epsilon = 0
	}
	db, err := vitri.OpenDurable(journalDir, opts)
	if err != nil {
		return nil, err
	}
	if corpusPath == "" || db.Len() > 0 {
		return db, nil
	}
	c, err := dataset.Load(corpusPath)
	if err != nil {
		return nil, err
	}
	if len(c.Videos) == 0 {
		return nil, errors.New("corpus has no videos")
	}
	videos := make([]vitri.Video, len(c.Videos))
	for i := range c.Videos {
		videos[i] = vitri.Video{ID: c.Videos[i].ID, Frames: c.Videos[i].Frames}
	}
	itemErrs, err := db.AddBatch(videos)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	if err := errors.Join(itemErrs...); err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	// Fold the bootstrap into a snapshot immediately: recovery then reads
	// one snapshot instead of replaying the whole corpus from the journal.
	if err := db.Checkpoint(); err != nil {
		return nil, fmt.Errorf("bootstrap checkpoint: %w", err)
	}
	log.Printf("vitriserve: bootstrapped durable store from %s (%d videos)", corpusPath, db.Len())
	if err := warmIndex(db, c.Videos[0].Frames, opts.Seed); err != nil {
		return nil, err
	}
	return db, nil
}

// warmIndex forces the lazy index build, so the first request doesn't
// pay for it and startup fails fast on a broken corpus.
func warmIndex(db *vitri.DB, frames []vitri.Vector, seed int64) error {
	warm := vitri.Summarize(-1, frames, db.Epsilon(), seed)
	if _, _, err := db.SearchSummary(&warm, 1, vitri.Composed); err != nil {
		return fmt.Errorf("index build: %w", err)
	}
	return nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "vitriserve: "+format+"\n", args...)
	os.Exit(1)
}
