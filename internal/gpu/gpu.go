// Package gpu models the training accelerator. The paper's results depend
// on GPU speed only through per-model training throughput (images/second),
// so a Model is a calibrated throughput plus batch semantics. The profiles
// reproduce the paper's Figure 1d regime: under a 500 Mbps link, ResNet50
// is compute-bound (near-full utilization), ResNet18 is ~35 % utilized, and
// AlexNet — the evaluation model — is heavily fetch-bound.
package gpu

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/simclock"
)

// Model is a neural network's training-speed profile on the reference GPU.
type Model struct {
	Name       string
	Throughput float64 // images per second at steady state
}

// Calibrated profiles (images/second on the paper's class of GPU).
var (
	AlexNet  = Model{Name: "alexnet", Throughput: 3000}
	resNet18 = Model{Name: "resnet18", Throughput: 620}
	ResNet50 = Model{Name: "resnet50", Throughput: 210}
)

// Models lists the built-in profiles.
func Models() []Model { return []Model{AlexNet, resNet18, ResNet50} }

// errUnknownModel reports a name with no registered profile.
var errUnknownModel = errors.New("gpu: unknown model")

// ByName resolves a built-in profile.
func ByName(name string) (Model, error) {
	for _, m := range Models() {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("%w: %q", errUnknownModel, name)
}

// Valid reports whether the model has a usable throughput.
func (m Model) Valid() bool { return m.Throughput > 0 }

// BatchTime returns the GPU busy time for one batch of the given size.
func (m Model) BatchTime(batchSize int) time.Duration {
	if batchSize <= 0 || !m.Valid() {
		return 0
	}
	return time.Duration(float64(batchSize) / m.Throughput * float64(time.Second))
}

// EpochTime returns the pure GPU compute time for n samples — the paper's
// T_G metric.
func (m Model) EpochTime(n int) time.Duration {
	if n <= 0 || !m.Valid() {
		return 0
	}
	return time.Duration(float64(n) / m.Throughput * float64(time.Second))
}

// Stream is the accelerator as one in-order device with at most one step
// outstanding: Submit hands a batch over and returns while it steps, and the
// next Submit first waits for that step to end. A trainer that owns one
// stream for its whole life overlaps each step with the loading of the next
// batch — across epoch boundaries too — as the epoch model's max(T_G, …)
// assumes.
type Stream struct {
	model Model
	clock simclock.Clock
	// idle holds when the last step ends whenever no caller has the device.
	// A caller takes it, waits on the clock for that instant and puts back
	// the end of its own step, so callers are served one at a time.
	idle chan time.Time
}

// NewStream returns an idle device running m, timed on clock.
func NewStream(m Model, clock simclock.Clock) *Stream {
	s := &Stream{model: m, clock: clock, idle: make(chan time.Time, 1)}
	s.idle <- time.Time{}
	return s
}

// Submit waits on the clock only until the previous step ends, marks the
// device busy for BatchTime(size) from then, and returns that busy time
// without waiting for it. A batch that costs nothing is not a step: Submit
// returns 0 at once.
func (s *Stream) Submit(size int) time.Duration {
	d := s.model.BatchTime(size)
	if d == 0 {
		return 0
	}
	s.idle <- s.wait(<-s.idle).Add(d)
	return d
}

// Drain waits for the last submitted step to end.
func (s *Stream) Drain() { s.idle <- s.wait(<-s.idle) }

// wait sleeps until the instant until and returns the clock's time then.
func (s *Stream) wait(until time.Time) time.Time {
	now := s.clock.Now()
	if d := until.Sub(now); d > 0 {
		s.clock.Sleep(d)
		now = s.clock.Now()
	}
	return now
}

// Utilization is GPU busy time over total epoch time, clamped to [0, 1].
func Utilization(busy, epoch time.Duration) float64 {
	if epoch <= 0 {
		return 0
	}
	u := float64(busy) / float64(epoch)
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}
