package core

import (
	"fmt"

	"kflushing/internal/policy"
)

// Names of the four evaluated flushing policies, as Choose accepts them.
const (
	NameKFlushing   = "kflushing"
	NameKFlushingMK = "kflushing-mk"
	NameFIFO        = "fifo"
	NameLRU         = "lru"
)

// Choose constructs the policy called name — the one place a policy
// name becomes a policy, shared by the public facade and the experiment
// harness. segmentBytes sizes FIFO's temporal segments (the flushing
// budget B in bytes); opts apply to the two kFlushing variants.
func Choose[K comparable](name string, segmentBytes int64, opts ...Option[K]) (policy.Choice[K], error) {
	switch name {
	case NameKFlushing:
		return policy.Choice[K]{Policy: New(opts...), TrackOverK: true}, nil
	case NameKFlushingMK:
		return policy.Choice[K]{Policy: NewMK(opts...), TrackTopK: true, TrackOverK: true}, nil
	case NameFIFO:
		return policy.Choice[K]{Policy: policy.NewFIFO[K](segmentBytes)}, nil
	case NameLRU:
		return policy.Choice[K]{Policy: policy.NewLRU[K]()}, nil
	default:
		return policy.Choice[K]{}, fmt.Errorf("unknown flushing policy %q", name)
	}
}
