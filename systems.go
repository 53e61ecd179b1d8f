package kflushing

import (
	"fmt"
	"path/filepath"

	"kflushing/internal/attr"
	"kflushing/internal/engine"
	"kflushing/internal/spatial"
)

// Cell identifies one tile of a spatial system's grid.
type Cell = spatial.Cell

// SpatialSystem answers "most recent k microblogs posted in a location"
// queries over a uniform grid of 4 mi² tiles (Section V-D). Search and
// SearchTraced take tiles; the rest of its methods are AttrSystem's.
type SpatialSystem struct {
	AttrSystem[Cell]
	grid *spatial.Grid
}

// OpenSpatial creates a spatial system whose disk tier lives under dir.
// A nil grid selects the default continental-US grid with 4 mi² tiles.
func OpenSpatial(dir string, grid *spatial.Grid, opt Options) (*SpatialSystem, error) {
	if grid == nil {
		grid = spatial.DefaultGrid()
	}
	as, err := open(dir, opt, attr.Spatial(grid), nil)
	if err != nil {
		return nil, err
	}
	return &SpatialSystem{as, grid}, nil
}

// Grid returns the system's spatial grid.
func (s *SpatialSystem) Grid() *spatial.Grid { return s.grid }

// SearchAt runs a top-k query for the tile containing (lat, lon).
func (s *SpatialSystem) SearchAt(lat, lon float64, k int) (Result, error) {
	return s.SearchRadius(lat, lon, 0, k)
}

// within resolves a point-and-radius query to tiles and an operator:
// the tile containing (lat, lon) when radiusMiles <= 0, else an OR
// across every tile within the radius.
func (s *SpatialSystem) within(lat, lon, radiusMiles float64) ([]Cell, Op) {
	cells := s.grid.CellsWithin(lat, lon, radiusMiles)
	if len(cells) == 1 {
		return cells, OpSingle
	}
	return cells, OpOr
}

// SearchRadius runs a top-k query over every tile within radiusMiles of
// (lat, lon) — an OR query across the covered tiles; radiusMiles <= 0
// selects the containing tile alone.
func (s *SpatialSystem) SearchRadius(lat, lon, radiusMiles float64, k int) (Result, error) {
	cells, op := s.within(lat, lon, radiusMiles)
	return s.Search(cells, op, k)
}

// SearchRadiusTraced is SearchRadius with an execution trace.
func (s *SpatialSystem) SearchRadiusTraced(lat, lon, radiusMiles float64, k int) (Result, *Trace, error) {
	cells, op := s.within(lat, lon, radiusMiles)
	return s.SearchTraced(cells, op, k)
}

// SearchCells runs a top-k query over explicit tiles; it is Search under
// the name the spatial API has always had. Spatial AND is semantically
// invalid (a record has one location; use OpOr or the radius helper).
func (s *SpatialSystem) SearchCells(cells []Cell, op Op, k int) (Result, error) {
	return s.Search(cells, op, k)
}

// SearchCellsTraced is SearchTraced under the spatial API's name.
func (s *SpatialSystem) SearchCellsTraced(cells []Cell, op Op, k int) (Result, *Trace, error) {
	return s.SearchTraced(cells, op, k)
}

// UserSystem answers "most recent k microblogs posted by a user"
// timeline queries (Section V-D). Its methods beyond the two below are
// AttrSystem's; user 0 means "no posting user" and is never indexed.
type UserSystem struct {
	AttrSystem[uint64]
}

// OpenUser creates a user-timeline system whose disk tier lives under
// dir.
func OpenUser(dir string, opt Options) (*UserSystem, error) {
	as, err := open(dir, opt, attr.User(), nil)
	if err != nil {
		return nil, err
	}
	return &UserSystem{as}, nil
}

// SearchUser returns the top-k timeline of one user.
func (s *UserSystem) SearchUser(userID uint64, k int) (Result, error) {
	return s.Search([]uint64{userID}, OpSingle, k)
}

// SearchUserTraced returns the top-k timeline of one user along with
// the execution trace.
func (s *UserSystem) SearchUserTraced(userID uint64, k int) (Result, *Trace, error) {
	return s.SearchTraced([]uint64{userID}, OpSingle, k)
}

// OpenAttributes opens the keyword, spatial and user systems of one
// ingested stream under dir — in dir/keyword, dir/spatial (over the
// default grid) and dir/user — each with its own memory budget, policy
// instance and disk tier, as opt gives every one. The three share one ID
// space and one ingest path: IngestBatch on any of them ingests into all
// three, each record under one ID into every system that indexes it, or,
// when a system refuses the batch (closed, degraded), into none. With
// opt.Durable they share one write-ahead log, kept in dir/keyword, so a
// microblog is logged once however many attributes index it; dir/keyword
// is then a complete tier by itself, and the other two name its log
// files. Close on any of them closes all three.
func OpenAttributes(dir string, opt Options) (_ *System, _ *SpatialSystem, _ *UserSystem, err error) {
	st := engine.NewStream()
	defer func() {
		if err != nil {
			_ = st.Close() // the systems opened before the failure; the open error is the one to surface
		}
	}()
	kw, err := open(filepath.Join(dir, "keyword"), opt, attr.Keyword(), st)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("open keyword system: %w", err)
	}
	grid := spatial.DefaultGrid()
	sp, err := open(filepath.Join(dir, "spatial"), opt, attr.Spatial(grid), st)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("open spatial system: %w", err)
	}
	us, err := open(filepath.Join(dir, "user"), opt, attr.User(), st)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("open user system: %w", err)
	}
	if err := st.Open(); err != nil {
		return nil, nil, nil, err
	}
	return &System{kw}, &SpatialSystem{sp, grid}, &UserSystem{us}, nil
}
