package trainsim

import (
	"sync"
	"testing"
	"time"

	"repro/internal/gpu"
)

// stepClock is a clock that only Sleep moves: a Sleep advances Now by its
// duration at once and is recorded. Under it the trainer's clock time is
// exactly the time it waited for the GPU.
type stepClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
}

func (c *stepClock) After(d time.Duration) <-chan time.Time {
	c.Sleep(d)
	ch := make(chan time.Time, 1)
	ch <- c.Now()
	return ch
}

// slept returns the sleeps recorded since the last call.
func (c *stepClock) slept() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.sleeps
	c.sleeps = nil
	return out
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// TestDeviceStepOutstandingAcrossEpochs: an epoch returns with its last step
// still running (the next epoch's first hand-off or Close waits for it),
// Close waits for exactly that step, and three epochs plus Close wait for
// every step their reports count.
func TestDeviceStepOutstandingAcrossEpochs(t *testing.T) {
	h := newHarness(t, 20, 1) // batches of 8, 8, 4
	clock := &stepClock{now: time.Unix(1000, 0)}
	cfg := h.config()
	cfg.Clock = clock
	tr := newTrainer(t, cfg)
	full, last := gpu.AlexNet.BatchTime(8), gpu.AlexNet.BatchTime(4)

	var busy, slept, outstanding time.Duration
	for epoch := uint64(1); epoch <= 3; epoch++ {
		rep, err := tr.RunEpoch(epoch, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Batches != 3 || rep.GPUBusy != 2*full+last {
			t.Fatalf("epoch %d: %d batches, %v busy; want 3, %v", epoch, rep.Batches, rep.GPUBusy, 2*full+last)
		}
		waited := sum(clock.slept())
		// The epoch waited for the step the previous one left, then for
		// each of its own but the last.
		if want := outstanding + rep.GPUBusy - last; waited != want {
			t.Fatalf("epoch %d waited %v for the GPU, want %v", epoch, waited, want)
		}
		if rep.Duration != waited {
			t.Fatalf("epoch %d lasted %v on a clock only GPU waits move, waited %v", epoch, rep.Duration, waited)
		}
		busy, slept, outstanding = busy+rep.GPUBusy, slept+waited, last
	}
	tr.Close()
	if got := clock.slept(); len(got) != 1 || got[0] != last {
		t.Fatalf("Close slept %v, want one sleep of %v", got, last)
	}
	if slept+last != busy {
		t.Fatalf("3 epochs and Close waited %v for %v of steps", slept+last, busy)
	}
}

// TestDeviceProbeAfterEpoch: the stage-1 GPU probe runs on the trainer's
// device, times exactly its own steps, and does not start them before the
// step an epoch left running has ended.
func TestDeviceProbeAfterEpoch(t *testing.T) {
	h := newHarness(t, 20, 1)
	clock := &stepClock{now: time.Unix(1000, 0)}
	cfg := h.config()
	cfg.Clock = clock
	tr := newTrainer(t, cfg)
	if _, err := tr.RunEpoch(1, nil, nil); err != nil {
		t.Fatal(err)
	}
	clock.slept()
	samples, elapsed, err := tr.stage1Probes().GPU(3)
	if err != nil {
		t.Fatal(err)
	}
	step := gpu.AlexNet.BatchTime(8)
	if samples != 24 || elapsed != 3*step {
		t.Fatalf("probe: %d samples in %v, want 24 in %v", samples, elapsed, 3*step)
	}
	if got, want := clock.slept(), gpu.AlexNet.BatchTime(4); len(got) == 0 || got[0] != want {
		t.Fatalf("probe slept %v, want the epoch's last step (%v) first", got, want)
	}
}

// TestDeviceNeverFasterThanSteps: on the real clock, with a GPU slower than
// the loader, three epochs plus Close take at least their summed step time.
func TestDeviceNeverFasterThanSteps(t *testing.T) {
	h := newHarness(t, 20, 1)
	cfg := h.config()
	cfg.GPU = gpu.Model{Name: "slow", Throughput: 800} // 10 ms a batch of 8
	tr := newTrainer(t, cfg)
	start := time.Now()
	var busy time.Duration
	for epoch := uint64(1); epoch <= 3; epoch++ {
		rep, err := tr.RunEpoch(epoch, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		busy += rep.GPUBusy
	}
	tr.Close()
	if wall := time.Since(start); wall < busy {
		t.Fatalf("3 epochs and Close took %v for %v of GPU steps", wall, busy)
	}
}
