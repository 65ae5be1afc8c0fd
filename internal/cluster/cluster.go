package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/simclock"
	"repro/internal/storage"
)

// Config describes an in-process sharded storage tier.
type Config struct {
	// Shards is the server count (≥ 1).
	Shards int
	// Store is the full dataset; Launch partitions it so each server owns
	// only its shard's samples.
	Store *storage.Store
	// Pipeline is the preprocessing pipeline every server runs.
	Pipeline *pipeline.Pipeline
	// CoresPerShard is each server's offload-CPU budget (0 disables
	// offloading on every shard).
	CoresPerShard int
	// LinkMbps, when positive, caps each shard's outbound link with its own
	// token bucket — K shards means K independent links, which is the whole
	// point of sharding the tier.
	LinkMbps float64
	// Clock drives the link shapers and chaos pauses; nil means real time.
	Clock simclock.Clock
	// Chaos, when non-nil, wraps every shard's listener in a seeded fault
	// injector: shard s's connections run the schedules of Chaos.Source(s),
	// and the shard can be partitioned at runtime via PartitionShard. A nil
	// plan leaves the fabric untouched (no wrapper at all).
	Chaos *chaos.Plan
}

// Cluster is a running set of shard servers reachable over in-memory pipe
// listeners. It exists for tests, benchmarks, and examples; production
// deployments run one sophon-server process per shard instead.
type Cluster struct {
	m         *ShardMap
	servers   []*storage.Server
	listeners []*netsim.PipeListener
	chaos     []*chaos.Listener // nil entries when Config.Chaos was nil

	mu     sync.Mutex
	killed []bool
}

// Launch partitions cfg.Store by the shard map and starts one server per
// shard, each behind its own (optionally shaped) listener.
func Launch(cfg Config) (*Cluster, error) {
	if cfg.Store == nil {
		return nil, errors.New("cluster: launch needs a store")
	}
	if cfg.Pipeline == nil {
		return nil, errors.New("cluster: launch needs a pipeline")
	}
	m, err := NewShardMap(cfg.Shards)
	if err != nil {
		return nil, err
	}
	n := cfg.Store.N()
	if n < cfg.Shards {
		return nil, fmt.Errorf("cluster: %d samples cannot populate %d shards", n, cfg.Shards)
	}
	c := &Cluster{m: m, killed: make([]bool, cfg.Shards)}
	for s := 0; s < cfg.Shards; s++ {
		store, err := ShardStore(cfg.Store, m, s)
		if err != nil {
			c.Close()
			return nil, err
		}
		srv, err := storage.NewServer(storage.ServerConfig{Store: store, Pipeline: cfg.Pipeline, Cores: cfg.CoresPerShard})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: shard %d: %w", s, err)
		}
		l := netsim.NewPipeListener()
		var serveL net.Listener = l
		if cfg.LinkMbps > 0 {
			bucket, err := netsim.NewTokenBucket(netsim.Mbps(cfg.LinkMbps), 32<<10, cfg.Clock)
			if err != nil {
				srv.Close()
				c.Close()
				return nil, err
			}
			serveL = netsim.ShapeListener(l, bucket)
		}
		var cl *chaos.Listener
		if cfg.Chaos != nil {
			// Chaos wraps outermost so faults hit whole frames as the server
			// reads and writes them, before shaping chunks the bytes.
			cl = chaos.WrapListener(serveL, cfg.Chaos.Source(s), cfg.Clock)
			serveL = cl
		}
		c.servers = append(c.servers, srv)
		c.listeners = append(c.listeners, l)
		c.chaos = append(c.chaos, cl)
		go srv.Serve(serveL)
	}
	return c, nil
}

// ShardStore builds shard s's partial store from the full dataset — what a
// shard server holds, here and in sophon-server -shards.
func ShardStore(full *storage.Store, m *ShardMap, s int) (*storage.Store, error) {
	owned := m.Owned(full.N(), s)
	if len(owned) == 0 {
		return nil, fmt.Errorf("cluster: shard %d owns no samples", s)
	}
	objects := make(map[uint32][]byte, len(owned))
	for _, id := range owned {
		b, err := full.Get(id)
		if err != nil {
			return nil, err
		}
		objects[id] = b
	}
	name := fmt.Sprintf("%s/shard-%d-of-%d", full.Name(), s, m.Shards())
	return storage.NewPartialStore(name, full.N(), objects)
}

// ShardMap returns the cluster's placement map.
func (c *Cluster) ShardMap() *ShardMap { return c.m }

// Shards returns the server count.
func (c *Cluster) Shards() int { return len(c.servers) }

// Server returns shard s's server (for counters and direct inspection).
func (c *Cluster) Server(s int) *storage.Server { return c.servers[s] }

// Counters returns every shard's counters, indexed by shard.
func (c *Cluster) Counters() []*storage.Counters {
	out := make([]*storage.Counters, len(c.servers))
	for i, srv := range c.servers {
		out[i] = srv.Counters()
	}
	return out
}

// DialShard opens a session to shard s over its in-memory listener.
func (c *Cluster) DialShard(s int, opts storage.ClientOptions) (*storage.Client, error) {
	if s < 0 || s >= len(c.listeners) {
		return nil, fmt.Errorf("cluster: shard %d out of range", s)
	}
	conn, err := c.listeners[s].Dial()
	if err != nil {
		return nil, fmt.Errorf("cluster: dial shard %d: %w", s, err)
	}
	return storage.NewClientWithOptions(conn, opts)
}

// NewShardedClient is NewShardedClientWithPolicy under
// storage.ConstantBackoff(attempts, backoff).
func (c *Cluster) NewShardedClient(opts storage.ClientOptions, attempts int, backoff time.Duration, degraded bool) (*ShardedClient, error) {
	policy, err := storage.ConstantBackoff(attempts, backoff)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return c.NewShardedClientWithPolicy(opts, policy, degraded)
}

// PartitionShard reversibly severs (on=true) or heals (on=false) shard s's
// network while the server process stays alive — the partition half of the
// fault model, distinct from the crash KillShard models. It errors when the
// cluster was launched without a chaos plan.
func (c *Cluster) PartitionShard(s int, on bool) error {
	if s < 0 || s >= len(c.chaos) {
		return fmt.Errorf("cluster: shard %d out of range", s)
	}
	if c.chaos[s] == nil {
		return fmt.Errorf("cluster: shard %d launched without chaos; partitions need Config.Chaos", s)
	}
	c.chaos[s].Partition(on)
	return nil
}

// ChaosStats returns shard s's injected-fault counters (zero snapshot when
// the cluster runs without chaos).
func (c *Cluster) ChaosStats(s int) chaos.StatsSnapshot {
	if s < 0 || s >= len(c.chaos) || c.chaos[s] == nil {
		return chaos.StatsSnapshot{}
	}
	return c.chaos[s].Source().Stats().Snapshot()
}

// NewShardedClientWithPolicy builds the fan-out client: one reconnecting
// session per shard retrying under policy, degraded per DegradedMode.
func (c *Cluster) NewShardedClientWithPolicy(opts storage.ClientOptions, policy storage.RetryPolicy, degraded bool) (*ShardedClient, error) {
	shards := make([]ShardClient, len(c.servers))
	for s := range c.servers {
		s := s
		rc, err := storage.NewReconnectingWithPolicy(func() (*storage.Client, error) {
			return c.DialShard(s, opts)
		}, policy, nil)
		if err != nil {
			for _, prev := range shards[:s] {
				if prev != nil {
					prev.Close()
				}
			}
			return nil, fmt.Errorf("cluster: shard %d: %w", s, err)
		}
		shards[s] = rc
	}
	return NewShardedClient(c.m, shards, degraded)
}

// KillShard abruptly stops shard s — server and listener — so fetches
// routed to it fail. It models a storage-node crash for degradation tests;
// idempotent per shard.
func (c *Cluster) KillShard(s int) error {
	if s < 0 || s >= len(c.servers) {
		return fmt.Errorf("cluster: shard %d out of range", s)
	}
	c.mu.Lock()
	dead := c.killed[s]
	c.killed[s] = true
	c.mu.Unlock()
	if dead {
		return nil
	}
	c.listeners[s].Close()
	return c.servers[s].Close()
}

// Close stops every shard; idempotent.
func (c *Cluster) Close() error {
	var first error
	for s := range c.servers {
		if err := c.KillShard(s); err != nil && first == nil {
			first = err
		}
	}
	return first
}
