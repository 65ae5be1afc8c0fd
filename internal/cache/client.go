package cache

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/storage"
)

// FetchingCache wraps a storage client — a bare session or any stack of
// retry / fan-out layers over one — with a local raw-object cache. Only
// split-0 fetches are cacheable: partially preprocessed artifacts embed
// per-epoch random augmentations and must be recomputed, which is the
// paper's argument for keeping preprocessing online rather than storing
// preprocessed datasets.
type FetchingCache struct {
	client storage.Fetcher
	cache  *NoEvict
}

// NewFetchingCache wraps client with cache.
func NewFetchingCache(client storage.Fetcher, c *NoEvict) *FetchingCache {
	return &FetchingCache{client: client, cache: c}
}

// hit serves a raw directive from the cache at zero wire bytes. A
// reduced-fidelity directive is served from the cached full object by
// truncating its progressive container locally — bit-identical to the
// prefix the server would slice — and a request for rows by the whole object.
func (f *FetchingCache) hit(sample uint32, split int) (storage.FetchResult, bool, error) {
	cut, fid := storage.UnpackDirective(split)
	if cut != 0 {
		return storage.FetchResult{}, false, nil
	}
	raw, ok := f.cache.get(sample)
	if !ok {
		return storage.FetchResult{}, false, nil
	}
	if n, ok := imaging.FidelityPrefixSize(raw, fid); ok {
		raw = raw[:n]
	}
	return storage.FetchResult{Sample: sample, Artifact: pipeline.RawArtifact(raw), Fidelity: fid}, true, nil
}

// fill inserts a fetched raw object. split == 0 means cut 0 AND full
// fidelity, so a truncated container never poisons full-fidelity readers.
// Safe to retain: raw artifact payloads are decoded into plain owned memory,
// never pool-backed buffers (see pipeline.DecodeArtifact), so the cache
// cannot alias memory the arena might hand out again.
func (f *FetchingCache) fill(sample uint32, split int, res storage.FetchResult) {
	if res.Err == nil && split == 0 && res.Artifact.Kind == pipeline.KindRaw {
		f.cache.put(sample, res.Artifact.Raw)
	}
}

// Fetch implements storage.Fetcher.
func (f *FetchingCache) Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (storage.FetchResult, error) {
	return storage.FetchOne(ctx, f, sample, split, epoch)
}

// FetchBatch serves cache hits locally at zero wire bytes and forwards the
// misses to the server in a single batched round trip (see through). Only
// raw fetches are cacheable, so offloaded ones bypass the cache entirely.
func (f *FetchingCache) FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	return through(samples, splits, f.hit, func(samples []uint32, splits []int) ([]storage.FetchResult, error) {
		return f.client.FetchBatch(ctx, samples, splits, epoch)
	}, f.fill)
}

// through is a caching layer's one scatter/gather: every directive hit serves
// keeps its slot, the misses go down in a single forward round trip (none
// when everything hit) without storage.Rows, as whole objects serve any crop,
// and each forwarded result is scattered back to its slot in request order
// and offered to fill. Per-item failures scatter
// through unchanged in FetchResult.Err — fill decides what is worth keeping;
// an error from hit or forward fails the whole call.
func through(samples []uint32, splits []int,
	hit func(sample uint32, split int) (storage.FetchResult, bool, error),
	forward func(samples []uint32, splits []int) ([]storage.FetchResult, error),
	fill func(sample uint32, split int, res storage.FetchResult),
) ([]storage.FetchResult, error) {
	if len(samples) != len(splits) {
		return nil, fmt.Errorf("cache: %d samples but %d splits", len(samples), len(splits))
	}
	out := make([]storage.FetchResult, len(samples))
	var missSamples []uint32
	var missSplits []int
	var missIdx []int
	for i := range samples {
		res, ok, err := hit(samples[i], splits[i])
		if err != nil {
			return nil, err
		}
		if ok {
			out[i] = res
			continue
		}
		missSamples = append(missSamples, samples[i])
		missSplits = append(missSplits, splits[i]&^storage.Rows)
		missIdx = append(missIdx, i)
	}
	if len(missSamples) == 0 {
		return out, nil
	}
	fetched, err := forward(missSamples, missSplits)
	if err != nil {
		return nil, err
	}
	if len(fetched) != len(missIdx) {
		return nil, fmt.Errorf("cache: forwarded %d samples, got %d results", len(missIdx), len(fetched))
	}
	for k, res := range fetched {
		out[missIdx[k]] = res
		fill(missSamples[k], missSplits[k], res)
	}
	return out, nil
}

// Tier reports the wrapped client's tier.
func (f *FetchingCache) Tier() storage.Tier { return f.client.Tier() }

// Close closes the wrapped client.
func (f *FetchingCache) Close() error { return f.client.Close() }

// ApplyToTrace folds a steady-state cache into a trace copy: a
// deterministic pseudo-random subset of samples totaling ~capacityBytes is
// marked resident, and resident samples' raw (stage-0) wire size drops to
// the 1-byte artifact header — they are served from local memory. Plans
// computed over the adjusted trace automatically skip offloading resident
// samples (their raw form is already free), so SOPHON composes with caching
// for free.
func ApplyToTrace(tr *dataset.Trace, capacityBytes int64, seed uint64) (*dataset.Trace, int) {
	out := &dataset.Trace{Name: tr.Name + "+cache", Records: make([]dataset.Record, tr.N())}
	copy(out.Records, tr.Records)
	if capacityBytes <= 0 {
		return out, 0
	}
	perm := permute(tr.N(), seed)
	var used int64
	resident := 0
	for _, idx := range perm {
		size := out.Records[idx].RawSize
		if used+size > capacityBytes {
			continue
		}
		used += size
		out.Records[idx].StageSizes[0] = 1
		resident++
	}
	return out, resident
}

// permute returns a deterministic permutation of [0, n).
func permute(n int, seed uint64) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	s := seed
	for i := n - 1; i > 0; i-- {
		s = splitmix(s)
		j := int(s % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
