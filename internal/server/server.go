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

// Store bundles the three attribute systems over one logical stream.
type Store struct {
	kw *kflushing.System
	sp *kflushing.SpatialSystem
	us *kflushing.UserSystem
}

// OpenStore opens (or recovers) the three attribute systems under dir.
// opt applies per attribute: each system gets its own MemoryBudget and
// policy instance.
func OpenStore(dir string, opt kflushing.Options) (*Store, error) {
	kw, err := kflushing.Open(filepath.Join(dir, "keyword"), opt)
	if err != nil {
		return nil, fmt.Errorf("open keyword system: %w", err)
	}
	sp, err := kflushing.OpenSpatial(filepath.Join(dir, "spatial"), nil, opt)
	if err != nil {
		kw.Close()
		return nil, fmt.Errorf("open spatial system: %w", err)
	}
	us, err := kflushing.OpenUser(filepath.Join(dir, "user"), opt)
	if err != nil {
		kw.Close()
		sp.Close()
		return nil, fmt.Errorf("open user system: %w", err)
	}
	return &Store{kw: kw, sp: sp, us: us}, nil
}

// IngestResult reports which attributes indexed a record.
type IngestResult struct {
	KeywordID kflushing.ID `json:"keyword_id,omitempty"`
	SpatialID kflushing.ID `json:"spatial_id,omitempty"`
	UserID    kflushing.ID `json:"user_id,omitempty"`
}

// Ingest digests one microblog into every attribute that can index it:
// keywords when hashtags are present, the spatial grid when geotagged,
// and the posting user's timeline when a user is set. Records arriving
// with raw text but no keywords get them extracted (hashtags first,
// significant terms as fallback). Each system gets its own copy
// (systems take ownership and assign attribute-local IDs).
func (s *Store) Ingest(mb *kflushing.Microblog) (IngestResult, error) {
	if len(mb.Keywords) == 0 && mb.Text != "" {
		mb.Keywords = textutil.Keywords(mb.Text, 5)
	}
	var res IngestResult
	indexed := false
	if len(mb.Keywords) > 0 {
		id, err := s.kw.Ingest(mb.Clone())
		if err != nil {
			return res, err
		}
		res.KeywordID = id
		indexed = true
	}
	if mb.HasGeo {
		id, err := s.sp.Ingest(mb.Clone())
		if err != nil {
			return res, err
		}
		res.SpatialID = id
		indexed = true
	}
	if mb.UserID != 0 {
		id, err := s.us.Ingest(mb.Clone())
		if err != nil {
			return res, err
		}
		res.UserID = id
		indexed = true
	}
	if !indexed {
		return res, ErrNotIndexed
	}
	return res, nil
}

// IngestBatch digests a batch of microblogs, grouping the records by the
// attributes that can index them and handing each attribute system one
// batch — so the per-attribute work (and the write-ahead log commit,
// when durability is on) is amortized across the whole request instead
// of paid per record. Results are aligned with mbs. A record no
// attribute can index rejects the whole batch with ErrNotIndexed before
// anything is ingested (the batch is classified up front, so unlike the
// single-record path that rejection is all-or-nothing).
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
	results := make([]IngestResult, len(mbs))
	var kwBatch, spBatch, usBatch []*kflushing.Microblog
	var kwIdx, spIdx, usIdx []int
	for i, mb := range mbs {
		if len(mb.Keywords) == 0 && mb.Text != "" {
			mb.Keywords = textutil.Keywords(mb.Text, 5)
		}
		indexed := false
		if len(mb.Keywords) > 0 {
			kwBatch = append(kwBatch, mb.Clone())
			kwIdx = append(kwIdx, i)
			indexed = true
		}
		if mb.HasGeo {
			spBatch = append(spBatch, mb.Clone())
			spIdx = append(spIdx, i)
			indexed = true
		}
		if mb.UserID != 0 {
			usBatch = append(usBatch, mb.Clone())
			usIdx = append(usIdx, i)
			indexed = true
		}
		if !indexed {
			return nil, ErrNotIndexed
		}
	}
	var done []string // attributes that have ingested records of this batch
	for _, a := range []struct {
		name   string
		ingest func([]*kflushing.Microblog) ([]kflushing.ID, error)
		batch  []*kflushing.Microblog
		idx    []int
		slot   func(*IngestResult) *kflushing.ID
	}{
		{"keyword", s.kw.IngestBatch, kwBatch, kwIdx, func(r *IngestResult) *kflushing.ID { return &r.KeywordID }},
		{"spatial", s.sp.IngestBatch, spBatch, spIdx, func(r *IngestResult) *kflushing.ID { return &r.SpatialID }},
		{"user", s.us.IngestBatch, usBatch, usIdx, func(r *IngestResult) *kflushing.ID { return &r.UserID }},
	} {
		ids, err := a.ingest(a.batch)
		if err != nil {
			return nil, fmt.Errorf("%s attribute rejected the batch (attributes that already ingested it, not rolled back: %v): %w",
				a.name, done, err)
		}
		for j, id := range ids {
			*a.slot(&results[a.idx[j]]) = id
		}
		if len(a.batch) > 0 {
			done = append(done, a.name)
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

// nearbyCells resolves a nearby query to grid tiles and an operator.
func (s *Store) nearbyCells(lat, lon, radiusMiles float64) ([]kflushing.Cell, kflushing.Op) {
	if radiusMiles <= 0 {
		return []kflushing.Cell{s.sp.Grid().CellOf(lat, lon)}, kflushing.OpSingle
	}
	cells := s.sp.Grid().CellsWithin(lat, lon, radiusMiles)
	if len(cells) == 1 {
		return cells, kflushing.OpSingle
	}
	return cells, kflushing.OpOr
}

// SearchNearby returns the most recent k posts near (lat, lon): within
// the containing grid tile when radiusMiles <= 0, else within the given
// radius (an OR query across the covered tiles).
func (s *Store) SearchNearby(lat, lon, radiusMiles float64, k int) (kflushing.Result, error) {
	cells, op := s.nearbyCells(lat, lon, radiusMiles)
	return s.sp.SearchCells(cells, op, k)
}

// SearchNearbyTraced is SearchNearby with an execution trace.
func (s *Store) SearchNearbyTraced(lat, lon, radiusMiles float64, k int) (kflushing.Result, *kflushing.Trace, error) {
	cells, op := s.nearbyCells(lat, lon, radiusMiles)
	return s.sp.SearchCellsTraced(cells, op, k)
}

// SearchUser returns the top-k timeline of one user.
func (s *Store) SearchUser(id uint64, k int) (kflushing.Result, error) {
	return s.us.SearchUser(id, k)
}

// SearchUserTraced is SearchUser with an execution trace.
func (s *Store) SearchUserTraced(id uint64, k int) (kflushing.Result, *kflushing.Trace, error) {
	return s.us.SearchUserTraced(id, k)
}

// FlushLogs returns the most recent n audited flush cycles of every
// attribute system, oldest-first (all retained cycles when n <= 0).
func (s *Store) FlushLogs(n int) map[string][]kflushing.FlushEvent {
	return map[string][]kflushing.FlushEvent{
		"keyword": s.kw.FlushLog(n),
		"spatial": s.sp.FlushLog(n),
		"user":    s.us.FlushLog(n),
	}
}

// BlackboxEvents returns each attribute system's retained flight-recorder
// events, sequence-ordered within each attribute. Keys are the attribute
// names ("keyword", "spatial", "user"); the /debug/blackbox handler
// merges them into one timeline.
func (s *Store) BlackboxEvents() map[string][]kflushing.BlackboxEvent {
	return map[string][]kflushing.BlackboxEvent{
		"keyword": s.kw.BlackboxEvents(),
		"spatial": s.sp.BlackboxEvents(),
		"user":    s.us.BlackboxEvents(),
	}
}

// SlowQueries returns each attribute system's retained slow-query traces
// oldest-first (empty unless Options.SlowQueryNanos is set).
func (s *Store) SlowQueries() map[string][]kflushing.SlowQuery {
	return map[string][]kflushing.SlowQuery{
		"keyword": s.kw.SlowQueries(),
		"spatial": s.sp.SlowQueries(),
		"user":    s.us.SlowQueries(),
	}
}

// Ready verifies every attribute system can serve writes (disk tier
// writable, WAL appendable when durable), returning per-attribute
// failure reasons; an empty map means ready.
func (s *Store) Ready() map[string]string {
	out := map[string]string{}
	if err := s.kw.Ready(); err != nil {
		out["keyword"] = err.Error()
	}
	if err := s.sp.Ready(); err != nil {
		out["spatial"] = err.Error()
	}
	if err := s.us.Ready(); err != nil {
		out["user"] = err.Error()
	}
	return out
}

// DiskHealth reports each attribute system's disk tier levels and flush
// pipeline queue depth — cheap enough for the readiness endpoint, where
// a persistently positive compaction backlog or a pinned queue depth
// makes a wedged compactor or saturated pipeline visible.
func (s *Store) DiskHealth() map[string]kflushing.DiskHealth {
	return map[string]kflushing.DiskHealth{
		"keyword": s.kw.DiskHealth(),
		"spatial": s.sp.DiskHealth(),
		"user":    s.us.DiskHealth(),
	}
}

// SetK changes the default top-k threshold of all attribute systems.
func (s *Store) SetK(k int) {
	s.kw.SetK(k)
	s.sp.SetK(k)
	s.us.SetK(k)
}

// TunerStatus is one attribute system's adaptive-memory report.
type TunerStatus struct {
	Enabled bool                 `json:"enabled"`
	State   kflushing.TunerState `json:"state"`
}

// TunerStates reports the adaptive memory tuner per attribute; systems
// running without the tuner report Enabled false and a zero state.
func (s *Store) TunerStates() map[string]TunerStatus {
	out := make(map[string]TunerStatus, 3)
	kw, kwOK := s.kw.TunerState()
	sp, spOK := s.sp.TunerState()
	us, usOK := s.us.TunerState()
	out["keyword"] = TunerStatus{Enabled: kwOK, State: kw}
	out["spatial"] = TunerStatus{Enabled: spOK, State: sp}
	out["user"] = TunerStatus{Enabled: usOK, State: us}
	return out
}

// Stats returns per-attribute snapshots.
func (s *Store) Stats() map[string]kflushing.Stats {
	return map[string]kflushing.Stats{
		"keyword": s.kw.Stats(),
		"spatial": s.sp.Stats(),
		"user":    s.us.Stats(),
	}
}

// Close shuts down all attribute systems, returning the first error.
func (s *Store) Close() error {
	var first error
	for _, c := range []func() error{s.kw.Close, s.sp.Close, s.us.Close} {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
