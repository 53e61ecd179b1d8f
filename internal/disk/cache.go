package disk

import (
	"container/list"
	"sync"
	"sync/atomic"

	"kflushing/internal/blackbox"
)

// recordCache is a bounded, sharded LRU over decoded FlushRecords keyed
// by (block ID, ordinal in the block). Hot keys that repeatedly miss
// memory stop paying a pread-plus-decode per query; eviction is by byte
// budget so cached text bodies cannot grow without bound. A block keeps
// its ID for as long as it is open, whichever directories name it, so
// compaction orphans nothing.
type recordCache struct {
	shards []cacheShard
	// shardBudget is each shard's byte budget, fixed at construction.
	shardBudget int64
	rec         *blackbox.Recorder

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

const (
	cacheShardCount = 8
	// cacheEntryOverhead approximates the per-entry bookkeeping cost
	// (map slot, list element, decoded Microblog header) on top of the
	// record's fields (fixedLen).
	cacheEntryOverhead = 160
)

type cacheKey struct {
	blk uint64
	ord uint32
}

type cacheEntry struct {
	key  cacheKey
	fr   FlushRecord
	size int64
}

type cacheShard struct {
	mu   sync.Mutex
	used int64
	ll   *list.List // front = most recently used
	m    map[cacheKey]*list.Element
}

// newRecordCache builds a cache holding at most budget bytes across all
// shards. budget must be positive.
func newRecordCache(budget int64, rec *blackbox.Recorder) *recordCache {
	c := &recordCache{
		shards:      make([]cacheShard, cacheShardCount),
		shardBudget: max(budget/cacheShardCount, 1),
		rec:         rec,
	}
	for i := range c.shards {
		c.shards[i] = cacheShard{ll: list.New(), m: make(map[cacheKey]*list.Element)}
	}
	return c
}

func (c *recordCache) shard(k cacheKey) *cacheShard {
	// Mix the block ID and ordinal so consecutive ordinals spread.
	h := k.blk*0x9e3779b97f4a7c15 + uint64(k.ord)*0xbf58476d1ce4e5b9
	return &c.shards[(h>>56)%cacheShardCount]
}

// get returns the cached record for k, marking it most recently used.
func (c *recordCache) get(k cacheKey) (FlushRecord, bool) {
	s := c.shard(k)
	s.mu.Lock()
	el, ok := s.m[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return FlushRecord{}, false
	}
	s.ll.MoveToFront(el)
	fr := el.Value.(*cacheEntry).fr
	s.mu.Unlock()
	c.hits.Add(1)
	return fr, true
}

// put inserts the record, evicting least-recently-used entries until the
// shard fits its budget. An entry is charged by what the decoded record
// holds — its fields at fixed width plus the bookkeeping — not by its
// on-disk length, so the same reads leave the same cache contents
// whichever block format served them.
func (c *recordCache) put(k cacheKey, fr FlushRecord) {
	size := fixedLen(fr) + cacheEntryOverhead
	if size > c.shardBudget {
		return // larger than a whole shard: never admit
	}
	s := c.shard(k)
	s.mu.Lock()
	if el, ok := s.m[k]; ok { // racing fill; refresh recency only
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.m[k] = s.ll.PushFront(&cacheEntry{key: k, fr: fr, size: size})
	s.used += size
	var evicted int64
	for s.used > c.shardBudget {
		back := s.ll.Back()
		if back == nil {
			break
		}
		en := back.Value.(*cacheEntry)
		s.ll.Remove(back)
		delete(s.m, en.key)
		s.used -= en.size
		evicted++
	}
	used := s.used
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
		c.rec.Record(blackbox.SubCache, blackbox.EvCacheEvict, evicted, used, 0)
	}
}

// resident returns the current cached byte total across shards.
func (c *recordCache) resident() int64 {
	var total int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.used
		s.mu.Unlock()
	}
	return total
}
