package cluster

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/wire"
)

// BenchmarkShardedFetch measures aggregate fetch throughput as the storage
// tier grows from one to four shards, each behind its own 500 Mbps shaped
// link (the paper's link, one per shard). Reported bytes/s should rise
// roughly with the shard count: the fan-out client keeps every link busy at
// once, which is the point of sharding the tier.
func BenchmarkShardedFetch(b *testing.B) {
	const n = 512
	store := testStore(b, n)
	for shards := 1; shards <= 4; shards++ {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := Launch(Config{
				Shards:   shards,
				Store:    store,
				Pipeline: testPipe(),
				LinkMbps: 500,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			sc, err := c.NewShardedClient(storage.ClientOptions{JobID: 1}, 1, 0, false)
			if err != nil {
				b.Fatal(err)
			}
			defer sc.Close()

			batch := make([]uint32, wire.MaxBatchItems)
			splits := make([]int, len(batch))
			ctx := context.Background()

			// One warm-up round sizes the per-iteration payload for SetBytes.
			for i := range batch {
				batch[i] = uint32(i)
			}
			res, err := sc.FetchBatch(ctx, batch, splits, 1)
			if err != nil {
				b.Fatal(err)
			}
			var bytes int64
			for _, r := range res {
				bytes += int64(r.WireBytes)
			}
			b.SetBytes(bytes)

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := uint32(i) * uint32(len(batch)) % n
				for j := range batch {
					batch[j] = (base + uint32(j)) % n
				}
				if _, err := sc.FetchBatch(ctx, batch, splits, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
