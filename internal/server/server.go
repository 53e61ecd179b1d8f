// Package server implements the multi-attribute microblogs store behind
// cmd/kflushd: one ingested stream is indexed under all three of the
// paper's search attributes — keywords, spatial grid tiles, and user
// timelines — each with its own memory budget, flushing policy instance,
// and disk tier, mirroring how the paper treats attributes as separate
// index structures (Section IV-A).
//
// The attributes share what is the stream's and not an index's: one ID
// per microblog, one ingest path that takes a batch into every attribute
// or into none, and, on a durable store, one write-ahead log, so a
// microblog is framed, fsynced, kept and replayed once however many
// attributes index it (kflushing.OpenAttributes). The data directory
// holds one tier per attribute, <dir>/keyword, <dir>/spatial and
// <dir>/user; the log's files live in <dir>/keyword, which is a complete
// tier on its own, and the spatial and user directories name them there.
package server

import (
	"errors"

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
	BlackboxEvents() []kflushing.BlackboxEvent
	Ready() error
	DiskHealth() kflushing.DiskHealth
	SetK(k int)
	Stats() kflushing.Stats
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
	// user. The first attribute's directory keeps the log.
	attrs []attribute
}

// OpenStore opens (or recovers) the three attribute systems under dir
// over one stream. opt applies per attribute: each system gets its own
// MemoryBudget and policy instance. A data directory an older build
// wrote, with one log per attribute, is refused with
// disk.ErrNeedsUpgrade, naming the commit whose `kflushctl upgrade`
// converts it (DESIGN.md §7.1).
func OpenStore(dir string, opt kflushing.Options) (*Store, error) {
	kw, sp, us, err := kflushing.OpenAttributes(dir, opt)
	if err != nil {
		return nil, err
	}
	s := &Store{kw: kw, sp: sp, us: us}
	s.attrs = []attribute{
		{kw, func(r *IngestResult) *kflushing.ID { return &r.KeywordID }},
		{sp, func(r *IngestResult) *kflushing.ID { return &r.SpatialID }},
		{us, func(r *IngestResult) *kflushing.ID { return &r.UserID }},
	}
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

// IngestResult reports which attributes indexed a record: each of them
// carries the record's one ID, the others zero.
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
// (hashtags first, significant terms as fallback). Each record is copied
// once and gets one ID, which every attribute indexing it reports;
// the whole batch is one group commit to the store's log (when
// durability is on), however many attributes index its records. Results
// are aligned with mbs.
//
// The batch is all-or-nothing. A record no attribute can index rejects
// it with ErrNotIndexed before anything is ingested, and so does an
// attribute that cannot take records (degraded read-only mode, a closed
// store): every attribute is checked before the batch is logged, and
// nothing fails after. A client that retries a rejected request ingests
// its records once.
func (s *Store) IngestBatch(mbs []*kflushing.Microblog) ([]IngestResult, error) {
	own := make([]*kflushing.Microblog, len(mbs))
	for i, mb := range mbs {
		if len(mb.Keywords) == 0 && mb.Text != "" {
			mb.Keywords = textutil.Keywords(mb.Text, 5)
		}
		indexed := false
		for _, at := range s.attrs {
			indexed = indexed || at.Indexes(mb)
		}
		if !indexed {
			return nil, ErrNotIndexed
		}
		own[i] = mb.Clone()
	}
	ids, err := s.kw.IngestBatch(own)
	if err != nil {
		return nil, err
	}
	results := make([]IngestResult, len(mbs))
	for i, mb := range own {
		for _, at := range s.attrs {
			if at.Indexes(mb) {
				*at.slot(&results[i]) = ids[i]
			}
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
// batches in flight — cheap enough for the readiness endpoint, where a
// persistently positive compaction backlog or a batch that stays in
// flight makes compaction falling behind or a stuck flush visible.
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

// Close shuts down all attribute systems and the log they share,
// returning the first error.
func (s *Store) Close() error { return s.kw.Close() }
