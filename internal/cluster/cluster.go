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
	buckets   []*netsim.TokenBucket // empty when Config.LinkMbps was 0
	chaos     []*chaos.Listener     // nil entries when Config.Chaos was nil

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
			bucket, err := netsim.NewTokenBucket(netsim.Mbps(cfg.LinkMbps), netsim.LinkBurst, cfg.Clock)
			if err != nil {
				srv.Close()
				c.Close()
				return nil, err
			}
			serveL = netsim.ShapeListener(l, bucket)
			c.buckets = append(c.buckets, bucket)
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
	name := fmt.Sprintf("%s/shard-%d-of-%d", full.Name(), s, m.shards)
	return storage.NewPartialStore(name, full.N(), s, m.shards, objects)
}

// ShardMap returns the cluster's placement map.
func (c *Cluster) ShardMap() *ShardMap { return c.m }

// Counters returns every shard's counters, indexed by shard.
func (c *Cluster) Counters() []*storage.Counters {
	out := make([]*storage.Counters, len(c.servers))
	for i, srv := range c.servers {
		out[i] = srv.Counters()
	}
	return out
}

// dialShard opens a session to shard s over its in-memory listener.
func (c *Cluster) dialShard(s int, opts storage.ClientOptions) (*storage.Client, error) {
	if s < 0 || s >= len(c.listeners) {
		return nil, fmt.Errorf("cluster: shard %d out of range", s)
	}
	conn, err := c.listeners[s].Dial()
	if err != nil {
		return nil, fmt.Errorf("cluster: dial shard %d: %w", s, err)
	}
	return storage.NewClientWithOptions(conn, opts)
}

// SetLinkMbps retunes every shard's link to mbps while the tier serves —
// the live equivalent of a network degradation. It errors when the tier was
// launched without LinkMbps (an unshaped link has nothing to retune).
func (c *Cluster) SetLinkMbps(mbps float64) error {
	if len(c.buckets) == 0 {
		return errors.New("cluster: tier launched without LinkMbps")
	}
	for _, b := range c.buckets {
		if err := b.SetRate(netsim.Mbps(mbps)); err != nil {
			return err
		}
	}
	return nil
}

// NewShardedClient builds the retrying fan-out client over the cluster's
// in-memory shards (see DialSharded).
func (c *Cluster) NewShardedClient(opts storage.ClientOptions, attempts int, pause time.Duration, degraded bool) (*ShardedClient, error) {
	return DialSharded(c.m, func(s int) (*storage.Client, error) { return c.dialShard(s, opts) }, attempts, pause, degraded)
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
