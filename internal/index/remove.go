package index

import "fmt"

// Remove deletes a video's triplets from the index. The per-video keys
// recorded at insert time locate each record in one B+-tree descent; the
// removed positions are subtracted from the running moments so
// DriftAngle keeps reflecting the live contents. The subtraction reads
// the catalog's exact float64 positions in cluster-ordinal order — the
// leaf copies may be float32-quantized, and un-accumulating a rounded
// position would leave a residue in the moments.
//
// Removing the last video leaves an empty but functional index.
func (ix *Index) Remove(videoID int) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	vid := int32(videoID)
	info, ok := ix.catalog[vid]
	if !ok {
		return fmt.Errorf("index: video %d not present", videoID)
	}
	var rec Record
	for _, key := range info.keys {
		removed, err := ix.tree.Delete(key, func(val []byte) bool {
			if ix.decodeRec(val, &rec) != nil {
				return false
			}
			return rec.VideoID == vid
		})
		if err != nil {
			return err
		}
		if !removed {
			return fmt.Errorf("index: video %d record at key %v missing (index corrupted?)", videoID, key)
		}
	}
	for ti := range info.trips {
		ix.mom.Sub(info.trips[ti].Position)
	}
	delete(ix.catalog, vid)
	return nil
}

// Contains reports whether a video is currently indexed.
func (ix *Index) Contains(videoID int) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.catalog[int32(videoID)]
	return ok
}
