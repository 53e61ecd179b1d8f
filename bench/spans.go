package bench

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"kflushing"
)

// Span is one timed call the driver made into the store, or a stage the
// store's public trace reported inside such a call. Spans of one
// operation share Op; Parent links a stage to the call that caused it.
type Span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent,omitempty"`
	Op      int              `json:"op"`
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"` // since the recorder was created
	EndNs   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced pass pays one nil check per call.
type spanRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
	ops   int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// add records one driver span and returns its ID and operation ID.
func (r *spanRecorder) add(name string, start, end time.Time, counts map[string]int64) (id, op int) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.append(0, r.ops, name, start.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds(), counts), r.ops
}

func (r *spanRecorder) append(parent, op int, name string, startNs, endNs int64, counts map[string]int64) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, StartNs: startNs, EndNs: endNs, Counts: counts})
	return id
}

// addTrace attaches the stages of a sampled search's public trace as
// child spans of the driver span: the memory probe, the disk fallback,
// and under it each segment consulted with its Bloom, directory, cache
// and read counts. The trace carries durations, not instants, so stages
// are laid end to end from the parent's start.
func (r *spanRecorder) addTrace(parent, op int, tr *kflushing.Trace) {
	if r == nil || tr == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	at := r.spans[parent-1].StartNs
	for _, st := range tr.Stages {
		switch st.Name {
		case "memory":
			r.append(parent, op, "engine.memory", at, at+st.Nanos, map[string]int64{
				"keys": int64(len(tr.Entries)), "items": int64(tr.MemoryItems),
			})
			at += st.Nanos
		case "disk":
			if tr.Disk == nil {
				continue
			}
			d := r.append(parent, op, "engine.disk", at, at+st.Nanos, map[string]int64{
				"cache_hits": int64(tr.Disk.CacheHits), "cache_misses": int64(tr.Disk.CacheMisses),
				"records_read": int64(tr.Disk.RecordsRead), "items": int64(tr.Disk.Items),
			})
			for _, sp := range tr.Disk.Segments {
				pruned := int64(0)
				if sp.Pruned {
					pruned = 1
				}
				// Segments are searched in parallel; each starts with
				// the disk stage.
				r.append(d, op, "disk.segment", at, at+sp.Nanos, map[string]int64{
					"pruned": pruned, "bloom_probes": int64(sp.BloomProbes), "bloom_skips": int64(sp.BloomSkips),
					"dir_probes": int64(sp.DirProbes), "cache_hits": int64(sp.CacheHits),
					"cache_misses": int64(sp.CacheMisses), "records_read": int64(sp.RecordsRead),
				})
			}
			at += st.Nanos
		}
	}
}

// traceFile is the on-disk form of one workload's spans.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []Span `json:"spans"`
}

// write stores the spans as JSON at path.
func (r *spanRecorder) write(path, workload string, seed int64) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
