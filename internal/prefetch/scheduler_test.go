package prefetch

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/storage"
)

func rawResult(sample uint32, split, wireBytes int) storage.FetchResult {
	return storage.FetchResult{
		Sample:    sample,
		Split:     split,
		WireBytes: wireBytes,
		Artifact:  pipeline.Artifact{Kind: pipeline.KindRaw, Raw: []byte{1, 2, 3, 4}},
	}
}

// okFetch builds a Fetch stub that serves every sample successfully.
func okFetch(delay time.Duration) func(int, []uint32, []int) ([]storage.FetchResult, error) {
	return func(shard int, samples []uint32, splits []int) ([]storage.FetchResult, error) {
		if delay > 0 {
			time.Sleep(delay)
		}
		out := make([]storage.FetchResult, len(samples))
		for k, s := range samples {
			out[k] = rawResult(s, splits[k], 100)
		}
		return out, nil
	}
}

func TestOrderDeterministic(t *testing.T) {
	plain := Order(7, 3, 5, false)
	for i, v := range plain {
		if v != i {
			t.Fatalf("unshuffled order[%d] = %d, want identity", i, v)
		}
	}
	a := Order(7, 3, 100, true)
	b := Order(7, 3, 100, true)
	seen := make(map[int]bool, len(a))
	permuted := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same (job, epoch) produced different orders at %d", i)
		}
		if seen[a[i]] {
			t.Fatalf("duplicate sample %d", a[i])
		}
		seen[a[i]] = true
		if a[i] != i {
			permuted = true
		}
	}
	if !permuted {
		t.Fatal("shuffle left the identity permutation")
	}
	c := Order(7, 4, 100, true)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("epochs 3 and 4 shuffled identically")
	}
}

func TestSchedulerDeliversStreamOrder(t *testing.T) {
	order := Order(11, 1, 200, true)
	m := &Metrics{}
	c, err := NewScheduler(Config{
		Order:     order,
		Shards:    3,
		ShardOf:   func(s uint32) int { return int(s) % 3 },
		Depth:     4,
		BatchSize: 8,
		Split:     func(sample int) int { return sample % 3 },
		Fetch:     okFetch(time.Microsecond),
		Metrics:   m,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent consumers: positions must still come out gap-free.
	var mu sync.Mutex
	got := make([]Item, 0, len(order))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				it, ok := c.Next()
				if !ok {
					return
				}
				mu.Lock()
				got = append(got, it)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	c.Wait()
	if len(got) != len(order) {
		t.Fatalf("delivered %d items, want %d", len(got), len(order))
	}
	seen := make([]bool, len(order))
	for _, it := range got {
		if it.Err != nil {
			t.Fatalf("pos %d failed: %v", it.Pos, it.Err)
		}
		if seen[it.Pos] {
			t.Fatalf("pos %d delivered twice", it.Pos)
		}
		seen[it.Pos] = true
		if it.Sample != order[it.Pos] {
			t.Fatalf("pos %d delivered sample %d, want %d", it.Pos, it.Sample, order[it.Pos])
		}
		if want := order[it.Pos] % 3; it.Split != want {
			t.Fatalf("pos %d used split %d, want %d", it.Pos, it.Split, want)
		}
	}
	snap := m.Snapshot()
	if snap.Completed != int64(len(order)) || snap.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", snap.Completed, snap.Failed, len(order))
	}
	if snap.StagedBytes != 0 {
		t.Fatalf("staged bytes %d after full drain, want 0", snap.StagedBytes)
	}
	if snap.StagedPeakBytes <= 0 {
		t.Fatal("staging peak never moved")
	}
	if snap.Offloaded == 0 || snap.Raw == 0 {
		t.Fatalf("tier accounting offloaded=%d raw=%d, want both > 0", snap.Offloaded, snap.Raw)
	}
}

// TestSchedulerStagingBudget proves the byte budget throttles issue: with a
// slow consumer and a budget of ~4 artifacts, the issue loops must stall on
// the budget, and the staged gauge stays near it rather than absorbing the
// whole epoch.
func TestSchedulerStagingBudget(t *testing.T) {
	order := Order(5, 1, 96, true)
	m := &Metrics{}
	artifactBytes := int64(rawResult(0, 0, 100).Artifact.WireSize())
	c, err := NewScheduler(Config{
		Order:        order,
		Depth:        4,
		BatchSize:    2,
		StagingBytes: 4 * artifactBytes,
		Fetch:        okFetch(0),
		Metrics:      m,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(order); i++ {
		time.Sleep(200 * time.Microsecond) // consumer slower than fetches
		it, ok := c.Next()
		if !ok || it.Err != nil {
			t.Fatalf("next %d: ok=%v err=%v", i, ok, it.Err)
		}
	}
	c.Wait()
	snap := m.Snapshot()
	if snap.BudgetStalls == 0 {
		t.Fatal("budget never stalled issue despite a slow consumer")
	}
	// Soft budget: overshoot is bounded by in-flight round trips
	// (Depth × BatchSize artifacts on the single shard).
	limit := 4*artifactBytes + 4*2*artifactBytes
	if snap.StagedPeakBytes > limit {
		t.Fatalf("staging peak %d exceeds soft budget bound %d", snap.StagedPeakBytes, limit)
	}
}

func TestSchedulerHorizonStalls(t *testing.T) {
	order := Order(5, 2, 64, true)
	m := &Metrics{}
	c, err := NewScheduler(Config{
		Order:   order,
		Depth:   4,
		Horizon: 4,
		Fetch:   okFetch(0),
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(order); i++ {
		time.Sleep(100 * time.Microsecond)
		if _, ok := c.Next(); !ok {
			t.Fatalf("stream ended early at %d", i)
		}
	}
	c.Wait()
	if m.Snapshot().HorizonStalls == 0 {
		t.Fatal("horizon never stalled issue despite a slow consumer")
	}
}

// TestSchedulerFailFast partitions shard 1 of 2: its round trips fail with a
// shard-down error. Fail-fast must stop fetching from the dead shard after
// the in-flight round trips, fail exactly its own stream entries, and keep
// shard 0's entries flowing.
func TestSchedulerFailFast(t *testing.T) {
	errDown := errors.New("shard down")
	order := Order(9, 1, 120, true)
	var deadCalls atomic.Int64
	m := &Metrics{}
	depth := 2
	c, err := NewScheduler(Config{
		Order:     order,
		Shards:    2,
		ShardOf:   func(s uint32) int { return int(s) % 2 },
		Depth:     depth,
		BatchSize: 4,
		Fetch: func(shard int, samples []uint32, splits []int) ([]storage.FetchResult, error) {
			if shard == 1 {
				deadCalls.Add(1)
				return nil, fmt.Errorf("dial shard 1: %w", errDown)
			}
			out := make([]storage.FetchResult, len(samples))
			for k, s := range samples {
				out[k] = rawResult(s, splits[k], 80)
			}
			return out, nil
		},
		Down:    func(err error) bool { return errors.Is(err, errDown) },
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	var okN, failN int
	for {
		it, ok := c.Next()
		if !ok {
			break
		}
		owner := it.Sample % 2
		if it.Err != nil {
			if owner != 1 {
				t.Fatalf("healthy shard sample %d failed: %v", it.Sample, it.Err)
			}
			if !errors.Is(it.Err, errDown) {
				t.Fatalf("sample %d failed with %v, want shard-down", it.Sample, it.Err)
			}
			failN++
			continue
		}
		if owner != 0 {
			t.Fatalf("dead shard sample %d succeeded", it.Sample)
		}
		okN++
	}
	c.Wait()
	wantFail := 0
	for _, s := range order {
		if s%2 == 1 {
			wantFail++
		}
	}
	if failN != wantFail || okN != len(order)-wantFail {
		t.Fatalf("ok=%d fail=%d, want %d/%d", okN, failN, len(order)-wantFail, wantFail)
	}
	// Fail-fast: after the first Depth round trips observe the outage, the
	// rest of the dead shard's stream completes synthetically. Allow one
	// extra for a claim racing the down mark.
	if calls := deadCalls.Load(); calls > int64(depth+1) {
		t.Fatalf("dead shard fetched %d times, want ≤ %d (fail-fast)", calls, depth+1)
	}
	if got := m.Snapshot().Failed; got != int64(wantFail) {
		t.Fatalf("metrics failed=%d, want %d", got, wantFail)
	}
}

// TestSchedulerSplitReadAtIssueTime proves a mid-stream plan rotation takes
// effect for not-yet-issued entries: with Horizon 1 the scheduler can only
// run one position ahead of consumption, so entries consumed well after the
// flip must have been issued with the new cut.
func TestSchedulerSplitReadAtIssueTime(t *testing.T) {
	order := Order(3, 1, 40, false)
	var cut atomic.Int64
	cut.Store(1)
	c, err := NewScheduler(Config{
		Order:   order,
		Depth:   2,
		Horizon: 1,
		Split:   func(sample int) int { return int(cut.Load()) },
		Fetch:   okFetch(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	flipAt := 20
	for i := 0; i < len(order); i++ {
		it, ok := c.Next()
		if !ok || it.Err != nil {
			t.Fatalf("next %d: ok=%v err=%v", i, ok, it.Err)
		}
		if i == flipAt {
			cut.Store(2)
		}
		// Horizon 1 bounds issue to one position ahead, so by two positions
		// past the flip every delivery was issued under the new plan.
		if i > flipAt+2 && it.Split != 2 {
			t.Fatalf("pos %d issued with split %d after plan rotation to 2", i, it.Split)
		}
		if i < flipAt && it.Split != 1 {
			t.Fatalf("pos %d issued with split %d before plan rotation", i, it.Split)
		}
	}
	c.Wait()
}

func TestSchedulerStopUnblocksNext(t *testing.T) {
	block := make(chan struct{})
	c, err := NewScheduler(Config{
		Order: Order(1, 1, 8, false),
		Fetch: func(shard int, samples []uint32, splits []int) ([]storage.FetchResult, error) {
			<-block
			return nil, errors.New("stopped")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := c.Next(); ok {
			t.Error("Next returned an item after Stop")
		}
	}()
	time.Sleep(10 * time.Millisecond)
	c.Stop()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not unblock on Stop")
	}
	close(block)
	c.Wait()
}
