package trainsim

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/storage"
)

// lateClock is a host whose timer wakes every sleep a fixed over late, without
// the noise: its time moves only when a sleep ends. Fetches, frames and
// hand-offs take none of it, so a probe timed on it measures the link alone.
type lateClock struct {
	mu   sync.Mutex
	now  time.Time
	over time.Duration
}

func (c *lateClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *lateClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d + c.over)
}

func (c *lateClock) After(d time.Duration) <-chan time.Time {
	c.Sleep(d)
	ch := make(chan time.Time, 1)
	ch <- c.Now()
	return ch
}

// TestMeasureBandwidthReadsTheShapedRate: a storage.Server behind a 500 Mbit/s
// link whose bucket banks only 32 KiB, on a host whose every sleep wakes 1 ms
// late — twice the 0.52 ms the burst banks at that rate — and the adaptive
// probe still reads at least 0.85 of the rate in each of 10 runs, for the
// bucket banks a sleep's overshoot beyond its burst.
func TestMeasureBandwidthReadsTheShapedRate(t *testing.T) {
	const rate = 500e6 / 8
	clock := &lateClock{now: time.Unix(0, 0), over: time.Millisecond}
	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{Name: "probe", N: 32, Seed: 5, MinDim: 256, MaxDim: 320})
	if err != nil {
		t.Fatal(err)
	}
	store, err := storage.FromImageSet(set)
	if err != nil {
		t.Fatal(err)
	}
	bucket, err := netsim.NewTokenBucket(rate, 32<<10, clock)
	if err != nil {
		t.Fatal(err)
	}
	p := pipeline.Standard(pipeline.StandardOptions{CropSize: 64, FlipP: -1})
	srv, err := storage.NewServer(storage.ServerConfig{Store: store, Pipeline: p, Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := netsim.NewPipeListener()
	go srv.Serve(netsim.ShapeListener(l, bucket))
	t.Cleanup(func() { srv.Close() })
	cfg := (&harness{listener: l, server: srv, pipe: p, n: store.N()}).config()
	cfg.Clock = clock
	tr := newTrainer(t, cfg)
	for run := range 10 {
		bw, err := tr.MeasureBandwidth(tr.ProbeSamples())
		if err != nil {
			t.Fatal(err)
		}
		if bw < 0.85*rate {
			t.Errorf("run %d: the probe read %.1f MB/s of a %.1f MB/s link", run, bw/1e6, rate/1e6)
		}
	}
}

// pairedFetcher answers a FetchBatch only while another is in flight beside
// it, or once the probe has asked for all its samples: a probe that fetches
// serially gets no answer.
type pairedFetcher struct {
	want   int // the samples the probe will ask for
	mu     sync.Mutex
	flight int // FetchBatch calls in flight
	sizes  []int
	seen   map[uint32]int
}

func (f *pairedFetcher) FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]storage.FetchResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flight++
	defer func() { f.flight-- }()
	f.sizes = append(f.sizes, len(samples))
	for _, s := range samples {
		f.seen[s]++
	}
	for deadline := time.Now().Add(2 * time.Second); f.flight < 2 && len(f.seen) < f.want; {
		if time.Now().After(deadline) {
			return nil, errors.New("no second batch came while this one was in flight")
		}
		f.mu.Unlock()
		time.Sleep(time.Millisecond)
		f.mu.Lock()
	}
	out := make([]storage.FetchResult, len(samples))
	for i, s := range samples {
		out[i] = storage.FetchResult{Sample: s, Artifact: pipeline.Artifact{Kind: pipeline.KindRaw}, WireBytes: 1000}
	}
	return out, nil
}

func (f *pairedFetcher) Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (storage.FetchResult, error) {
	return storage.FetchOne(ctx, f, sample, split, epoch)
}

func (f *pairedFetcher) Tier() storage.Tier {
	return storage.Tier{Samples: 64, Pipeline: pipeline.DefaultStandard().Fingerprint(), Shards: 1}
}
func (f *pairedFetcher) Close() error { return nil }

// TestMeasureBandwidthKeepsTwoBatchesInFlight: the probe asks for each of
// its samples once, in FetchBatch round trips of FetchBatchSize (one of them
// shorter when the batches do not divide the samples), two of them in flight
// at a time, so that one's fixed cost overlaps the other's transfer. A loop
// of serial fetches never has two in flight.
func TestMeasureBandwidthKeepsTwoBatchesInFlight(t *testing.T) {
	for _, c := range []struct{ batch, n int }{{1, 7}, {8, 32}, {8, 30}, {5, 5}} {
		f := &pairedFetcher{want: c.n, seen: map[uint32]int{}}
		tr, err := New(Config{
			DialClient:     func() (storage.Fetcher, error) { return f, nil },
			Pipeline:       pipeline.DefaultStandard(),
			GPU:            gpu.AlexNet,
			BatchSize:      8,
			FetchBatchSize: c.batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.MeasureBandwidth(c.n); err != nil {
			t.Fatalf("batches of %d, %d samples: %v", c.batch, c.n, err)
		}
		tr.Close()
		short := 0
		for _, size := range f.sizes {
			if size != c.batch {
				short++
				if size != c.n%c.batch {
					short = 2
				}
			}
		}
		if short > 1 || len(f.seen) != c.n || len(f.sizes) != (c.n+c.batch-1)/c.batch {
			t.Errorf("batches of %d, %d samples: round trips of %v over %d distinct samples", c.batch, c.n, f.sizes, len(f.seen))
		}
	}
}
