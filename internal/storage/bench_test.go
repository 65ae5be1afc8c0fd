package storage

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pipeline"
)

func BenchmarkFetchRaw(b *testing.B) {
	st := testStore(b, 8)
	_, dial := startServer(b, ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 2})
	c := dial()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := FetchOne(context.Background(), c, uint32(i%8), 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		res.Artifact.Release()
	}
}

func BenchmarkFetchOffloadedPrefix(b *testing.B) {
	st := testStore(b, 8)
	_, dial := startServer(b, ServerConfig{Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 2})
	c := dial()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := FetchOne(context.Background(), c, uint32(i%8), 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		res.Artifact.Release()
	}
}

// BenchmarkTransport_Pipelined measures fetch throughput over a shaped
// 500 Mbps link (the paper's storage↔compute interconnect) as the in-flight
// window grows. Window 1 is the old lock-step transport — one request per
// round trip; larger windows keep the link and the server's cores busy
// simultaneously, which is the whole point of the multiplexed session.
// Offloaded fetches (split 2) make the server do real per-request CPU work,
// so pipelining overlaps preprocessing with transmission.
func BenchmarkTransport_Pipelined(b *testing.B) {
	for _, window := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			st := testStore(b, 16)
			// Slowdown 2 models the paper's weaker storage-node CPU: each
			// offloaded request costs ~2 ms of server CPU, comparable to
			// its ~2.4 ms transfer time, so there is real latency for
			// pipelining to hide.
			srv, err := NewServer(ServerConfig{
				Store: st, Pipeline: pipeline.DefaultStandard(), Cores: 4, Slowdown: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			// Burst below one response size: the link cannot bank capacity
			// while the server computes, exactly like a real wire.
			bucket, err := netsim.NewTokenBucket(netsim.Mbps(500), 16<<10, nil)
			if err != nil {
				b.Fatal(err)
			}
			inner := netsim.NewPipeListener()
			go srv.Serve(netsim.ShapeListener(inner, bucket))
			b.Cleanup(func() { srv.Close() })

			conn, err := inner.Dial()
			if err != nil {
				b.Fatal(err)
			}
			c, err := NewClientWithOptions(conn, ClientOptions{
				JobID: 1, MaxInFlight: window, RequestTimeout: time.Minute,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })

			gate := make(chan struct{}, window)
			errCh := make(chan error, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gate <- struct{}{}
				go func(i int) {
					defer func() { <-gate }()
					res, err := FetchOne(context.Background(), c, uint32(i%16), 2, 1)
					if err != nil {
						select {
						case errCh <- err:
						default:
						}
						return
					}
					res.Artifact.Release()
				}(i)
			}
			for k := 0; k < window; k++ { // drain: wait for stragglers
				gate <- struct{}{}
			}
			select {
			case err := <-errCh:
				b.Fatal(err)
			default:
			}
		})
	}
}

func BenchmarkExecutorPrefix(b *testing.B) {
	set := testImageSet(b, 1)
	raw, err := set.Raw(0)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewExecutor(pipeline.DefaultStandard(), 4, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		art, err := e.RunPrefix(raw, 2, pipeline.Seed{Job: 1, Epoch: 1, Sample: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		art.Release()
	}
}
