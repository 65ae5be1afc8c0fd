// Command sophon-server runs the storage-node half of the system: an
// in-memory object store holding a synthetic dataset, a near-storage
// preprocessing executor with a bounded core budget, and the wire-protocol
// server, optionally behind a token-bucket bandwidth cap (the paper's
// 500 Mbps link).
//
// It runs a tier of -shards K servers (one by default, the paper's storage
// node) on consecutive ports starting at -addr's port, each owning only the
// samples the rendezvous-hashed shard map places on it, each with its own
// core budget and (when -mbps is set) its own shaped link. Point
// sophon-train's -addr at the K addresses.
//
// Usage:
//
//	sophon-server -addr :7070 -n 2000 -cores 4 -mbps 500
//	sophon-server -addr :7070 -n 2000 -cores 4 -mbps 500 -shards 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/monitor"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/storage"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, flag.CommandLine, os.Args[1:], time.Now); err != nil {
		log.New(os.Stderr, "sophon-server: ", log.LstdFlags).Fatal(err)
	}
}

// run is the command: flags declared on fs (main's exits on a bad command
// line, a test's returns the error), the log on fs.Output(), now timing the
// build for the "store ready" line. It serves until ctx is cancelled and
// returns once every shard has shut down.
func run(ctx context.Context, fs *flag.FlagSet, args []string, now func() time.Time) error {
	addr := fs.String("addr", "127.0.0.1:7070", "listen address (shard i listens on port+i)")
	dataDir := fs.String("data-dir", "", "serve a datagen-written dataset directory instead of synthesizing")
	n := fs.Int("n", 1000, "number of synthetic samples to materialize")
	seed := fs.Uint64("seed", 1, "dataset seed")
	name := fs.String("dataset", "synthetic", "dataset name")
	minDim := fs.Int("min-dim", 80, "smallest image side (px)")
	maxDim := fs.Int("max-dim", 480, "largest image side (px)")
	crop := fs.Int("crop", 224, "RandomResizedCrop output side")
	cores := fs.Int("cores", 4, "storage CPU cores per shard for offloaded preprocessing (0 disables)")
	slowdown := fs.Float64("slowdown", 1, "storage CPU slowdown factor (>= 1)")
	mbps := fs.Float64("mbps", 0, "cap each shard's outbound bandwidth (Mbit/s; 0 = unshaped)")
	httpAddr := fs.String("http", "", "serve /healthz, /stats, /metrics on this address (empty = disabled)")
	idle := fs.Duration("idle-timeout", 0, "drop connections idle for this long (0 = never)")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrently handled requests per connection (0 = default 32)")
	shards := fs.Int("shards", 1, "number of shard servers (rendezvous-hashed sample placement)")
	admitBytes := fs.Int64("admit-bytes", 0, "global in-flight byte budget shared by all shards (0 = admission disabled)")
	admitQueue := fs.Int("admit-queue", 0, "max queued requests per tenant at the admission gate (0 = default)")
	retryAfter := fs.Duration("retry-after", 0, "backoff hint carried by shed-load rejections (0 = default)")
	if done, err := cliutil.ParseArgs(fs, args, "sophon-server", "Serves a synthetic dataset over the SOPHON wire protocol with near-storage preprocessing."); done || err != nil {
		return err
	}

	logger := log.New(fs.Output(), "sophon-server: ", log.LstdFlags)
	if err := cliutil.IntError(fs,
		map[string]bool{"n": true, "shards": true},
		map[string]bool{"max-inflight": true},
		map[string]int{"n": *n, "shards": *shards, "max-inflight": *maxInFlight}); err != nil {
		return err
	}
	if *cores < 0 {
		return fmt.Errorf("-cores must be non-negative, got %d", *cores)
	}
	if !(*mbps >= 0) || math.IsInf(*mbps, 0) {
		return fmt.Errorf("-mbps must be a finite value >= 0, got %g", *mbps)
	}

	start := now()
	var store *storage.Store
	if *dataDir != "" {
		logger.Printf("loading dataset from %s...", *dataDir)
		ds, err := dataset.LoadDir(*dataDir)
		if err != nil {
			return err
		}
		blobs, err := ds.Materialize()
		if err != nil {
			return err
		}
		store, err = storage.NewStore(ds.Name(), blobs)
		if err != nil {
			return err
		}
	} else {
		logger.Printf("materializing %d samples (seed %d)...", *n, *seed)
		set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{
			Name: *name, N: *n, Seed: *seed, MinDim: *minDim, MaxDim: *maxDim,
		})
		if err != nil {
			return err
		}
		store, err = storage.FromImageSet(set)
		if err != nil {
			return err
		}
	}
	logger.Printf("store ready: %d objects, %.1f MB in %.2f s on %d cores",
		store.N(), float64(store.TotalBytes())/1e6, now().Sub(start).Seconds(), runtime.GOMAXPROCS(0))

	shardMap, err := cluster.NewShardMap(*shards)
	if err != nil {
		return err
	}
	host, portStr, err := net.SplitHostPort(*addr)
	if err != nil {
		return fmt.Errorf("bad -addr %q: %v", *addr, err)
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		return fmt.Errorf("bad -addr port %q: %v", portStr, err)
	}
	pipe := pipeline.Standard(pipeline.StandardOptions{CropSize: *crop, FlipP: -1})

	var admission *storage.AdmissionController
	if *admitBytes != 0 {
		admission, err = storage.NewAdmissionController(storage.AdmissionConfig{
			MaxInFlightBytes:  *admitBytes,
			MaxQueuePerTenant: *admitQueue,
			RetryAfter:        *retryAfter,
		})
		if err != nil {
			return err
		}
		logger.Printf("admission: %.1f MB in-flight budget shared across %d shard(s), retry-after %v",
			float64(*admitBytes)/1e6, *shards, admission.RetryAfterHint())
	} else if *admitQueue != 0 || *retryAfter != 0 {
		return errors.New("-admit-queue/-retry-after need -admit-bytes > 0")
	}

	servers := make([]*storage.Server, *shards)
	listeners := make([]net.Listener, *shards)
	counters := make([]*storage.Counters, *shards)
	for s := 0; s < *shards; s++ {
		shardStore, err := cluster.ShardStore(store, shardMap, s)
		if err != nil {
			return err
		}
		srv, err := storage.NewServer(storage.ServerConfig{
			Store:       shardStore,
			Pipeline:    pipe,
			Cores:       *cores,
			Slowdown:    *slowdown,
			IdleTimeout: *idle,
			MaxInFlight: *maxInFlight,
			Admission:   admission,
			Logger:      logger,
		})
		if err != nil {
			return err
		}
		shardAddr := net.JoinHostPort(host, strconv.Itoa(basePort+s))
		inner, err := net.Listen("tcp", shardAddr)
		if err != nil {
			return err
		}
		defer inner.Close() // a later shard's failure must not leave this port bound
		var l net.Listener = inner
		if *mbps > 0 {
			bucket, err := netsim.NewTokenBucket(netsim.Mbps(*mbps), netsim.LinkBurst, nil)
			if err != nil {
				return err
			}
			l = netsim.ShapeListener(inner, bucket)
		}
		servers[s] = srv
		listeners[s] = l
		counters[s] = srv.Counters()
		logger.Printf("shard %d: %d/%d objects on %s", s, shardStore.Owned(), shardStore.N(), inner.Addr())
	}
	if *mbps > 0 {
		logger.Printf("each shard's link capped at %.0f Mbps", *mbps)
	}

	if *httpAddr != "" {
		mon := monitor.NewMulti(counters...)
		if admission != nil {
			mon.WatchAdmission(admission)
		}
		bound, err := mon.ListenAndServe(*httpAddr)
		if err != nil {
			return err
		}
		defer mon.Close()
		logger.Printf("monitoring on http://%s/{healthz,stats,metrics}", bound)
	}

	stop := context.AfterFunc(ctx, func() {
		logger.Print("shutting down")
		for _, srv := range servers {
			srv.Close()
		}
	})
	defer stop()

	logger.Printf("serving %q on %s (%d shard(s), %d offload cores each)",
		*name, listeners[0].Addr(), *shards, *cores)
	var wg sync.WaitGroup
	for s := range servers {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if err := servers[s].Serve(listeners[s]); err != nil && err != storage.ErrServerClosed {
				logger.Printf("shard %d: %v", s, err)
			}
		}(s)
	}
	wg.Wait()

	var served, ops, sent, cpu uint64
	for _, c := range counters {
		served += c.SamplesServed.Load()
		ops += c.OpsExecuted.Load()
		sent += c.BytesSent.Load()
		cpu += c.CPUNanos.Load()
	}
	fmt.Printf("served %d samples, executed %d ops, sent %.1f MB, burned %.2fs CPU\n",
		served, ops, float64(sent)/1e6, float64(cpu)/1e9)
	return nil
}
