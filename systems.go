package kflushing

import (
	"kflushing/internal/attr"
	"kflushing/internal/engine"
	"kflushing/internal/query"
	"kflushing/internal/spatial"
	"kflushing/internal/trace"
)

// Cell identifies one tile of a spatial system's grid.
type Cell = spatial.Cell

// SpatialSystem answers "most recent k microblogs posted in a location"
// queries over a uniform grid of 4 mi² tiles (Section V-D). All methods
// are safe for concurrent use.
type SpatialSystem struct {
	eng  *engine.Engine[spatial.Cell]
	grid *spatial.Grid
}

// OpenSpatial creates a spatial system whose disk tier lives under dir.
// A nil grid selects the default continental-US grid with 4 mi² tiles.
func OpenSpatial(dir string, grid *spatial.Grid, opt Options) (*SpatialSystem, error) {
	if grid == nil {
		grid = spatial.DefaultGrid()
	}
	eng, err := newEngine(dir, opt, attr.SpatialKeys(grid), attr.HashCell, attr.CellLen, attr.CellEncode)
	if err != nil {
		return nil, err
	}
	return &SpatialSystem{eng: eng, grid: grid}, nil
}

// Grid returns the system's spatial grid.
func (s *SpatialSystem) Grid() *spatial.Grid { return s.grid }

// Ingest digests one geotagged microblog, taking ownership of mb.
// Records without a location are rejected.
func (s *SpatialSystem) Ingest(mb *Microblog) (ID, error) { return s.eng.Ingest(mb) }

// IngestBatch digests a batch of geotagged microblogs in arrival order;
// records without a location are skipped (zero ID in the result).
func (s *SpatialSystem) IngestBatch(mbs []*Microblog) ([]ID, error) { return s.eng.IngestBatch(mbs) }

// SearchAt runs a top-k query for the tile containing (lat, lon).
func (s *SpatialSystem) SearchAt(lat, lon float64, k int) (Result, error) {
	return s.SearchCells([]Cell{s.grid.CellOf(lat, lon)}, OpSingle, k)
}

// SearchRadius runs a top-k query over every tile within radiusMiles of
// (lat, lon) — an OR query across the covered tiles.
func (s *SpatialSystem) SearchRadius(lat, lon, radiusMiles float64, k int) (Result, error) {
	cells := s.grid.CellsWithin(lat, lon, radiusMiles)
	op := OpOr
	if len(cells) == 1 {
		op = OpSingle
	}
	return s.SearchCells(cells, op, k)
}

// SearchCells runs a top-k query over explicit tiles. Spatial AND is
// semantically invalid (a record has one location; use OpOr or the
// radius helper).
func (s *SpatialSystem) SearchCells(cells []Cell, op Op, k int) (Result, error) {
	return s.eng.Search(query.Request[Cell]{Keys: cells, Op: op, K: k})
}

// SearchCellsTraced runs a top-k query over explicit tiles and returns
// the execution trace alongside the result.
func (s *SpatialSystem) SearchCellsTraced(cells []Cell, op Op, k int) (Result, *Trace, error) {
	tr := trace.New()
	res, err := s.eng.Search(query.Request[Cell]{Keys: cells, Op: op, K: k, Trace: tr})
	return res, tr, err
}

// FlushLog returns the most recent n audited flush cycles oldest-first
// (all retained cycles when n <= 0).
func (s *SpatialSystem) FlushLog(n int) []FlushEvent { return s.eng.Journal().Last(n) }

// BlackboxEvents returns the flight recorder's retained events merged in
// sequence order; see System.BlackboxEvents.
func (s *SpatialSystem) BlackboxEvents() []BlackboxEvent { return s.eng.Blackbox().Events() }

// SlowQueries returns the retained slow-query traces oldest-first; see
// System.SlowQueries.
func (s *SpatialSystem) SlowQueries() []SlowQuery { return s.eng.SlowLog().Snapshot() }

// Ready verifies the system can serve writes; see System.Ready.
func (s *SpatialSystem) Ready() error { return s.eng.CheckReady() }

// DiskHealth reports the disk tier's per-level layout and the flush
// pipeline queue depth; see System.DiskHealth.
func (s *SpatialSystem) DiskHealth() DiskHealth { return s.eng.DiskHealth() }

// SetK changes the default top-k threshold at run time.
func (s *SpatialSystem) SetK(k int) { s.eng.SetK(k) }

// FlushNow forces one flush cycle, returning the bytes freed.
func (s *SpatialSystem) FlushNow() (int64, error) { return s.eng.FlushNow() }

// Stats returns a snapshot of gauges, counters, and the index census.
func (s *SpatialSystem) Stats() Stats { return s.eng.Stats() }

// TunerState reports the adaptive memory tuner's snapshot; ok is false
// when Options.AdaptiveMemory is off.
func (s *SpatialSystem) TunerState() (TunerState, bool) { return s.eng.TunerState() }

// Close drains background work and releases the disk tier.
func (s *SpatialSystem) Close() error { return s.eng.Close() }

// Engine exposes the underlying generic engine for experiments.
func (s *SpatialSystem) Engine() *engine.Engine[Cell] { return s.eng }

// UserSystem answers "most recent k microblogs posted by a user"
// timeline queries (Section V-D). All methods are safe for concurrent
// use.
type UserSystem struct {
	eng *engine.Engine[uint64]
}

// OpenUser creates a user-timeline system whose disk tier lives under
// dir.
func OpenUser(dir string, opt Options) (*UserSystem, error) {
	eng, err := newEngine(dir, opt, attr.UserKeys, attr.HashUint64, attr.UserLen, attr.UserEncode)
	if err != nil {
		return nil, err
	}
	return &UserSystem{eng: eng}, nil
}

// Ingest digests one microblog, taking ownership of mb.
func (s *UserSystem) Ingest(mb *Microblog) (ID, error) { return s.eng.Ingest(mb) }

// IngestBatch digests a batch of microblogs in arrival order; records
// without a posting user are skipped (zero ID in the result).
func (s *UserSystem) IngestBatch(mbs []*Microblog) ([]ID, error) { return s.eng.IngestBatch(mbs) }

// SearchUser returns the top-k timeline of one user.
func (s *UserSystem) SearchUser(userID uint64, k int) (Result, error) {
	return s.eng.Search(query.Request[uint64]{Keys: []uint64{userID}, Op: OpSingle, K: k})
}

// SearchUserTraced returns the top-k timeline of one user along with
// the execution trace.
func (s *UserSystem) SearchUserTraced(userID uint64, k int) (Result, *Trace, error) {
	tr := trace.New()
	res, err := s.eng.Search(query.Request[uint64]{Keys: []uint64{userID}, Op: OpSingle, K: k, Trace: tr})
	return res, tr, err
}

// FlushLog returns the most recent n audited flush cycles oldest-first
// (all retained cycles when n <= 0).
func (s *UserSystem) FlushLog(n int) []FlushEvent { return s.eng.Journal().Last(n) }

// BlackboxEvents returns the flight recorder's retained events merged in
// sequence order; see System.BlackboxEvents.
func (s *UserSystem) BlackboxEvents() []BlackboxEvent { return s.eng.Blackbox().Events() }

// SlowQueries returns the retained slow-query traces oldest-first; see
// System.SlowQueries.
func (s *UserSystem) SlowQueries() []SlowQuery { return s.eng.SlowLog().Snapshot() }

// Ready verifies the system can serve writes; see System.Ready.
func (s *UserSystem) Ready() error { return s.eng.CheckReady() }

// DiskHealth reports the disk tier's per-level layout and the flush
// pipeline queue depth; see System.DiskHealth.
func (s *UserSystem) DiskHealth() DiskHealth { return s.eng.DiskHealth() }

// SetK changes the default top-k threshold at run time.
func (s *UserSystem) SetK(k int) { s.eng.SetK(k) }

// FlushNow forces one flush cycle, returning the bytes freed.
func (s *UserSystem) FlushNow() (int64, error) { return s.eng.FlushNow() }

// Stats returns a snapshot of gauges, counters, and the index census.
func (s *UserSystem) Stats() Stats { return s.eng.Stats() }

// TunerState reports the adaptive memory tuner's snapshot; ok is false
// when Options.AdaptiveMemory is off.
func (s *UserSystem) TunerState() (TunerState, bool) { return s.eng.TunerState() }

// Close drains background work and releases the disk tier.
func (s *UserSystem) Close() error { return s.eng.Close() }

// Engine exposes the underlying generic engine for experiments.
func (s *UserSystem) Engine() *engine.Engine[uint64] { return s.eng }
