// Package server implements the multi-attribute microblogs store behind
// cmd/kflushd: one ingested stream is indexed under all three of the
// paper's search attributes — keywords, spatial grid tiles, and user
// timelines — each with its own memory budget, flushing policy instance,
// and disk tier, mirroring how the paper treats attributes as separate
// index structures (Section IV-A).
package server

import (
	"errors"
	"fmt"
	"path/filepath"

	"kflushing"
	"kflushing/internal/textutil"
)

// ErrNotIndexed reports a record that no attribute could index (no
// keywords, no location, no user).
var ErrNotIndexed = errors.New("server: microblog not indexable under any attribute")

// attrSystem is what the Store needs of an attribute system without
// knowing its key type: the part of kflushing.AttrSystem[K] that does
// not mention K.
type attrSystem interface {
	Attr() string
	Indexes(*kflushing.Microblog) bool
	IngestBatch([]*kflushing.Microblog) ([]kflushing.ID, error)
	BlackboxEvents() []kflushing.BlackboxEvent
	Ready() error
	DiskHealth() kflushing.DiskHealth
	SetK(k int)
	Stats() kflushing.Stats
	Close() error
}

// attribute is one row of the Store's attribute table.
type attribute struct {
	attrSystem
	// slot picks the attribute's ID out of an IngestResult.
	slot func(*IngestResult) *kflushing.ID
}

// Store bundles the three attribute systems over one logical stream.
// Everything that treats the attributes alike walks attrs; the typed
// handles exist for the searches, which speak each attribute's keys.
type Store struct {
	kw *kflushing.System
	sp *kflushing.SpatialSystem
	us *kflushing.UserSystem
	// attrs is the attribute table in ingest order: keyword, spatial,
	// user. The order is part of the IngestBatch contract.
	attrs []attribute
}

// OpenStore opens (or recovers) the three attribute systems under dir.
// opt applies per attribute: each system gets its own MemoryBudget and
// policy instance.
func OpenStore(dir string, opt kflushing.Options) (_ *Store, err error) {
	s := &Store{}
	defer func() {
		if err != nil {
			s.Close() // the systems opened before the failing one
		}
	}()
	if s.kw, err = kflushing.Open(filepath.Join(dir, "keyword"), opt); err != nil {
		return nil, fmt.Errorf("open keyword system: %w", err)
	}
	s.attrs = append(s.attrs, attribute{s.kw, func(r *IngestResult) *kflushing.ID { return &r.KeywordID }})
	if s.sp, err = kflushing.OpenSpatial(filepath.Join(dir, "spatial"), nil, opt); err != nil {
		return nil, fmt.Errorf("open spatial system: %w", err)
	}
	s.attrs = append(s.attrs, attribute{s.sp, func(r *IngestResult) *kflushing.ID { return &r.SpatialID }})
	if s.us, err = kflushing.OpenUser(filepath.Join(dir, "user"), opt); err != nil {
		return nil, fmt.Errorf("open user system: %w", err)
	}
	s.attrs = append(s.attrs, attribute{s.us, func(r *IngestResult) *kflushing.ID { return &r.UserID }})
	return s, nil
}

// perAttr builds the per-attribute map every fan-out method returns,
// keyed by attribute name ("keyword", "spatial", "user").
func perAttr[V any](s *Store, f func(attrSystem) V) map[string]V {
	out := make(map[string]V, len(s.attrs))
	for _, a := range s.attrs {
		out[a.Attr()] = f(a.attrSystem)
	}
	return out
}

// IngestResult reports which attributes indexed a record.
type IngestResult struct {
	KeywordID kflushing.ID `json:"keyword_id,omitempty"`
	SpatialID kflushing.ID `json:"spatial_id,omitempty"`
	UserID    kflushing.ID `json:"user_id,omitempty"`
}

// Ingest digests one microblog into every attribute that can index it;
// it is IngestBatch for a batch of one, with the same contract.
func (s *Store) Ingest(mb *kflushing.Microblog) (IngestResult, error) {
	res, err := s.IngestBatch([]*kflushing.Microblog{mb})
	if err != nil {
		return IngestResult{}, err
	}
	return res[0], nil
}

// IngestBatch digests a batch of microblogs into every attribute that
// can index them: keywords when hashtags are present, the spatial grid
// when geotagged, and the posting user's timeline when a user is set.
// Records arriving with raw text but no keywords get them extracted
// (hashtags first, significant terms as fallback). The records are
// grouped by attribute and each attribute system is handed one batch of
// its own copies (systems take ownership and assign attribute-local
// IDs) — so the per-attribute work (and the write-ahead log commit,
// when durability is on) is amortized across the whole request instead
// of paid per record. Results are aligned with mbs. A record no
// attribute can index rejects the whole batch with ErrNotIndexed before
// anything is ingested: the batch is classified up front, so that
// rejection is all-or-nothing.
//
// A failure inside an attribute system is NOT all-or-nothing. The
// systems ingest in the fixed order keyword, spatial, user, each with
// its own store and log: when one rejects its batch (degraded read-only
// mode, a closed system), the attributes before it have already
// ingested theirs and are not rolled back, the ones after it are never
// offered theirs, and no IDs are returned. The error names the
// rejecting attribute and the ones that had already ingested.
// A client that retries the request re-ingests the records under the
// attributes that had succeeded, as new records with new IDs.
func (s *Store) IngestBatch(mbs []*kflushing.Microblog) ([]IngestResult, error) {
	batches := make([][]*kflushing.Microblog, len(s.attrs))
	idx := make([][]int, len(s.attrs)) // idx[a][j]: position in mbs of batches[a][j]
	for i, mb := range mbs {
		if len(mb.Keywords) == 0 && mb.Text != "" {
			mb.Keywords = textutil.Keywords(mb.Text, 5)
		}
		indexed := false
		for a, at := range s.attrs {
			if at.Indexes(mb) {
				batches[a] = append(batches[a], mb.Clone())
				idx[a] = append(idx[a], i)
				indexed = true
			}
		}
		if !indexed {
			return nil, ErrNotIndexed
		}
	}
	results := make([]IngestResult, len(mbs))
	var done []string // attributes that have ingested records of this batch
	for a, at := range s.attrs {
		ids, err := at.IngestBatch(batches[a])
		if err != nil {
			return nil, fmt.Errorf("%s attribute rejected the batch (attributes that already ingested it, not rolled back: %v): %w",
				at.Attr(), done, err)
		}
		for j, id := range ids {
			*at.slot(&results[idx[a][j]]) = id
		}
		if len(batches[a]) > 0 {
			done = append(done, at.Attr())
		}
	}
	return results, nil
}

// SearchKeywords runs a top-k keyword query (single/AND/OR).
func (s *Store) SearchKeywords(keywords []string, op kflushing.Op, k int) (kflushing.Result, error) {
	return s.kw.Search(keywords, op, k)
}

// SearchKeywordsTraced runs a top-k keyword query with an execution
// trace (the ?trace=1 path).
func (s *Store) SearchKeywordsTraced(keywords []string, op kflushing.Op, k int) (kflushing.Result, *kflushing.Trace, error) {
	return s.kw.SearchTraced(keywords, op, k)
}

// SearchNearby returns the most recent k posts near (lat, lon): within
// the containing grid tile when radiusMiles <= 0, else within the given
// radius (an OR query across the covered tiles).
func (s *Store) SearchNearby(lat, lon, radiusMiles float64, k int) (kflushing.Result, error) {
	return s.sp.SearchRadius(lat, lon, radiusMiles, k)
}

// SearchNearbyTraced is SearchNearby with an execution trace.
func (s *Store) SearchNearbyTraced(lat, lon, radiusMiles float64, k int) (kflushing.Result, *kflushing.Trace, error) {
	return s.sp.SearchRadiusTraced(lat, lon, radiusMiles, k)
}

// SearchUser returns the top-k timeline of one user.
func (s *Store) SearchUser(id uint64, k int) (kflushing.Result, error) {
	return s.us.SearchUser(id, k)
}

// SearchUserTraced is SearchUser with an execution trace.
func (s *Store) SearchUserTraced(id uint64, k int) (kflushing.Result, *kflushing.Trace, error) {
	return s.us.SearchUserTraced(id, k)
}

// BlackboxEvents returns each attribute system's retained flight-recorder
// events, sequence-ordered within each attribute. Keys are the attribute
// names ("keyword", "spatial", "user"); the /debug/blackbox handler
// merges them into one timeline, from which blackbox.FlushCycles and
// blackbox.SlowQueries derive the flush log and the slow-query log.
func (s *Store) BlackboxEvents() map[string][]kflushing.BlackboxEvent {
	return perAttr(s, attrSystem.BlackboxEvents)
}

// Ready verifies every attribute system can serve writes (disk tier
// writable, WAL appendable when durable), returning per-attribute
// failure reasons; an empty map means ready.
func (s *Store) Ready() map[string]string {
	out := map[string]string{}
	for _, a := range s.attrs {
		if err := a.Ready(); err != nil {
			out[a.Attr()] = err.Error()
		}
	}
	return out
}

// DiskHealth reports each attribute system's disk tier levels and flush
// pipeline queue depth — cheap enough for the readiness endpoint, where
// a persistently positive compaction backlog or a pinned queue depth
// makes a wedged compactor or saturated pipeline visible.
func (s *Store) DiskHealth() map[string]kflushing.DiskHealth {
	return perAttr(s, attrSystem.DiskHealth)
}

// SetK changes the default top-k threshold of all attribute systems.
func (s *Store) SetK(k int) {
	for _, a := range s.attrs {
		a.SetK(k)
	}
}

// Stats returns per-attribute snapshots.
func (s *Store) Stats() map[string]kflushing.Stats {
	return perAttr(s, attrSystem.Stats)
}

// Close shuts down all attribute systems, returning the first error.
func (s *Store) Close() error {
	var first error
	for _, a := range s.attrs {
		if err := a.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
