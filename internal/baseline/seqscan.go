package baseline

import (
	"errors"
	"fmt"
	"sort"

	"vitri/internal/core"
	"vitri/internal/index"
	"vitri/internal/pager"
)

// SeqStore is the sequential-scan comparator: ViTri records packed densely
// into pages with no index. Every search reads every page and evaluates
// every record against every query triplet — the paper's "sequential scan"
// line in Figures 17–19.
type SeqStore struct {
	pg      pager.Pager
	dim     int
	epsilon float64
	recSize int
	perPage int
	nrec    int
	frames  map[int32]int // video id -> frame count
}

// NewSeqStore lays the summaries' triplets out in pages. The pager must be
// empty.
func NewSeqStore(summaries []core.Summary, epsilon float64, pg pager.Pager) (*SeqStore, error) {
	if epsilon <= 0 {
		return nil, errors.New("baseline: epsilon must be positive")
	}
	if pg == nil {
		pg = pager.NewMem()
	}
	if pg.NumPages() != 0 {
		return nil, errors.New("baseline: NewSeqStore requires an empty pager")
	}
	dim := 0
	for i := range summaries {
		if len(summaries[i].Triplets) > 0 {
			dim = summaries[i].Triplets[0].Dim()
			break
		}
	}
	if dim == 0 {
		return nil, errors.New("baseline: no triplets to store")
	}
	s := &SeqStore{
		pg:      pg,
		dim:     dim,
		epsilon: epsilon,
		recSize: index.RecordSize(dim),
		frames:  make(map[int32]int),
	}
	s.perPage = pager.PageSize / s.recSize
	if s.perPage < 1 {
		return nil, fmt.Errorf("baseline: record size %d exceeds page size", s.recSize)
	}

	var page pager.Page
	inPage := 0
	flush := func() error {
		if inPage == 0 {
			return nil
		}
		id, err := pg.Alloc()
		if err != nil {
			return err
		}
		if err := pg.Write(id, &page); err != nil {
			return err
		}
		page = pager.Page{}
		inPage = 0
		return nil
	}
	for si := range summaries {
		sum := &summaries[si]
		if _, dup := s.frames[int32(sum.VideoID)]; dup {
			return nil, fmt.Errorf("baseline: duplicate video id %d", sum.VideoID)
		}
		s.frames[int32(sum.VideoID)] = sum.FrameCount
		for ti := range sum.Triplets {
			tpl := &sum.Triplets[ti]
			if tpl.Dim() != dim {
				return nil, fmt.Errorf("baseline: mixed dimensionality %d vs %d", tpl.Dim(), dim)
			}
			rec := index.Record{
				VideoID:  int32(sum.VideoID),
				ClusterN: int32(ti),
				Count:    int32(tpl.Count),
				Radius:   tpl.Radius,
				Position: tpl.Position,
			}
			if err := index.EncodeRecord(&rec, page[inPage*s.recSize:(inPage+1)*s.recSize]); err != nil {
				return nil, err
			}
			inPage++
			s.nrec++
			if inPage == s.perPage {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return s, nil
}

// Len returns the number of stored ViTri records.
func (s *SeqStore) Len() int { return s.nrec }

// Pages returns the number of data pages the store occupies.
func (s *SeqStore) Pages() int { return s.pg.NumPages() }

// Search scans every record, scoring videos identically to the indexed
// search (per-cluster-capped shared-frame estimates normalized by frame
// counts), and returns the top k.
func (s *SeqStore) Search(q *core.Summary, k int) ([]index.Result, index.SearchStats, error) {
	if k <= 0 {
		return nil, index.SearchStats{}, errors.New("baseline: k must be positive")
	}
	var stats index.SearchStats
	if len(q.Triplets) == 0 {
		return nil, stats, nil
	}
	readsBefore := s.pg.Stats().Reads

	type score struct {
		qSums  []float64
		dbSums map[int32]float64
		dbCnts map[int32]int32
	}
	scores := make(map[int32]*score)

	var page pager.Page
	var rec index.Record
	remaining := s.nrec
	for pid := 0; pid < s.pg.NumPages(); pid++ {
		if err := s.pg.Read(pager.PageID(pid), &page); err != nil {
			return nil, stats, err
		}
		inPage := s.perPage
		if remaining < inPage {
			inPage = remaining
		}
		for i := 0; i < inPage; i++ {
			if err := index.DecodeRecord(page[i*s.recSize:(i+1)*s.recSize], s.dim, &rec); err != nil {
				return nil, stats, err
			}
			stats.Candidates++
			trip := rec.Triplet()
			for qi := range q.Triplets {
				stats.SimilarityOps++
				shared := core.SharedFrames(&q.Triplets[qi], &trip)
				if shared <= 0 {
					continue
				}
				sc := scores[rec.VideoID]
				if sc == nil {
					sc = &score{
						qSums:  make([]float64, len(q.Triplets)),
						dbSums: make(map[int32]float64),
						dbCnts: make(map[int32]int32),
					}
					scores[rec.VideoID] = sc
				}
				sc.qSums[qi] += shared
				sc.dbSums[rec.ClusterN] += shared
				sc.dbCnts[rec.ClusterN] = rec.Count
			}
		}
		remaining -= inPage
	}
	stats.Ranges = 1
	stats.PageReads = s.pg.Stats().Reads - readsBefore

	results := make([]index.Result, 0, len(scores))
	for vid, sc := range scores {
		var total float64
		for qi, v := range sc.qSums {
			if c := float64(q.Triplets[qi].Count); v > c {
				v = c
			}
			total += v
		}
		// Fold cluster contributions in sorted ordinal order: float
		// addition is not associative, so ranging the map directly would
		// make similarities differ in the last ULPs run to run.
		ordinals := make([]int32, 0, len(sc.dbSums))
		for cn := range sc.dbSums {
			ordinals = append(ordinals, cn)
		}
		sort.Slice(ordinals, func(i, j int) bool { return ordinals[i] < ordinals[j] })
		for _, cn := range ordinals {
			v := sc.dbSums[cn]
			if c := float64(sc.dbCnts[cn]); v > c {
				v = c
			}
			total += v
		}
		if total <= 0 {
			continue
		}
		sim := total / float64(q.FrameCount+s.frames[vid])
		if sim > 1 {
			sim = 1
		}
		results = append(results, index.Result{VideoID: int(vid), Similarity: sim, Shared: total})
	}
	sortResults(results)
	if len(results) > k {
		results = results[:k]
	}
	return results, stats, nil
}

// sortResults orders by similarity descending, id ascending on ties.
func sortResults(rs []index.Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Similarity != rs[j].Similarity {
			return rs[i].Similarity > rs[j].Similarity
		}
		return rs[i].VideoID < rs[j].VideoID
	})
}
