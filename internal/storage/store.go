// Package storage implements the remote-storage side of SOPHON: an
// in-memory object store (the paper caches its datasets in storage-node
// RAM), a near-storage executor that runs preprocessing prefixes under a
// bounded CPU-core budget, a TCP server speaking the wire protocol, and the
// matching compute-node client.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// Store is an in-memory object store: sample ID → stored bytes, immutable
// once built. A store may be partial (see NewPartialStore): it spans the full
// sample ID space of a dataset but holds objects for only a subset — the
// shape of one shard of a sharded storage tier.
//
// Beside each object it keeps one slot for the object's decoded stage, the
// planes artifact the pipeline's decode makes of it, filled once, the first
// time an offloaded prefix runs on the object, and never evicted: every epoch
// offloads the same objects again, and cropping from decoded planes skips the
// entropy decode and the prediction undo. The slots
// hold 1.5 B a pixel of each object the plans offload, about 2.3× its SJPG
// bytes; objects only ever fetched raw cost nothing.
type Store struct {
	name       string
	objects    [][]byte
	decoded    []planeSlot // by sample ID, as objects
	owned      int
	totalBytes int64
	// The store is shard shard of shards; a whole store is shard 0 of 1.
	shard, shards int
}

// planeSlot holds an object's planes artifact once Executor.planes has filled
// it; it stays the zero Artifact if that whole decode failed.
type planeSlot struct {
	once   sync.Once
	planes pipeline.Artifact
}

// errNotFound reports a missing object.
var errNotFound = errors.New("storage: object not found")

// NewStore wraps pre-materialized objects. The slice is retained; callers
// must not mutate it afterwards.
func NewStore(name string, objects [][]byte) (*Store, error) {
	if len(objects) == 0 {
		return nil, errors.New("storage: store needs at least one object")
	}
	var total int64
	for i, o := range objects {
		if len(o) == 0 {
			return nil, fmt.Errorf("storage: object %d is empty", i)
		}
		total += int64(len(o))
	}
	return &Store{name: name, objects: objects, decoded: make([]planeSlot, len(objects)), owned: len(objects), totalBytes: total, shards: 1}, nil
}

// NewPartialStore builds shard shard of a shards-shard tier: a store
// spanning sample IDs [0, n) that owns only the objects in own (ID →
// bytes). Lookups of unowned IDs return errNotFound; N() still reports n so
// every shard of a cluster agrees on the dataset size during the handshake.
func NewPartialStore(name string, n, shard, shards int, own map[uint32][]byte) (*Store, error) {
	if n <= 0 {
		return nil, fmt.Errorf("storage: partial store needs n > 0, got %d", n)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("storage: shard %d of %d", shard, shards)
	}
	if len(own) == 0 {
		return nil, errors.New("storage: partial store owns no objects")
	}
	objects := make([][]byte, n)
	var total int64
	for id, o := range own {
		if int(id) >= n {
			return nil, fmt.Errorf("storage: owned sample %d outside [0, %d)", id, n)
		}
		if len(o) == 0 {
			return nil, fmt.Errorf("storage: object %d is empty", id)
		}
		objects[id] = o
		total += int64(len(o))
	}
	return &Store{name: name, objects: objects, decoded: make([]planeSlot, n), owned: len(own), totalBytes: total, shard: shard, shards: shards}, nil
}

// FromImageSet materializes a synthetic image set into a store — the
// "dataset cached in memory on the storage node" setup from the paper.
func FromImageSet(s *dataset.ImageSet) (*Store, error) {
	blobs, err := s.Materialize()
	if err != nil {
		return nil, err
	}
	return NewStore(s.Name(), blobs)
}

// Name returns the dataset name.
func (s *Store) Name() string { return s.name }

// N returns the number of sample IDs the store spans (for a partial store,
// the full dataset size, not the owned count).
func (s *Store) N() int { return len(s.objects) }

// Owned returns how many objects the store actually holds.
func (s *Store) Owned() int { return s.owned }

// TotalBytes returns the summed stored size of the owned objects.
func (s *Store) TotalBytes() int64 { return s.totalBytes }

// Get returns the stored bytes of sample id. The returned slice is shared;
// callers must not mutate it.
func (s *Store) Get(id uint32) ([]byte, error) {
	if int(id) >= len(s.objects) || s.objects[id] == nil {
		return nil, fmt.Errorf("%w: sample %d of %d", errNotFound, id, len(s.objects))
	}
	return s.objects[id], nil
}

// slot returns the decoded-planes slot of sample id, which Get has found.
func (s *Store) slot(id uint32) *planeSlot { return &s.decoded[id] }

// Counters aggregates server-side accounting shared by the executor and the
// connection handlers. The Uint64 fields are monotone counters; InFlight and
// Connections are gauges (they go down as requests complete and connections
// close), so a monitor can watch each server of a sharded deployment live.
type Counters struct {
	SamplesServed atomic.Uint64
	OpsExecuted   atomic.Uint64
	BytesSent     atomic.Uint64
	// CPUNanos sums the time executor cores spent on prefixes, slowdown
	// included. An object's first offload pays a whole decode into its
	// store slot; later ones crop from that.
	CPUNanos    atomic.Uint64
	InFlight    atomic.Int64
	Connections atomic.Int64
	// ShedLoad counts requests this server rejected with a retry-after
	// because admission control was saturated (the controller itself also
	// keeps a global count; this one is per-server so a sharded deployment
	// can see which shard is hot).
	ShedLoad atomic.Uint64
	// PrefixServed counts raw fetches answered from the progressive fast
	// path: the stored container was sliced to the requested fidelity with
	// no re-encoding. PrefixBytesSaved sums the refinement bytes those
	// slices withheld versus shipping the full container.
	PrefixServed     atomic.Uint64
	PrefixBytesSaved atomic.Uint64
	// PlaneBytes sums the decoded planes the store's slots hold. A slot is
	// filled once and never evicted, so it only grows.
	PlaneBytes atomic.Uint64
}
