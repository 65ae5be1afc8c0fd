package sophon

// Chaos soak suite: end-to-end training over a fault-injected storage
// fabric, checked for bit-identical artifacts, exact failure accounting,
// goroutine hygiene, and seed reproducibility. The short default runs in CI;
// longer targeted soaks are driven by flags:
//
//	go test -run TestChaosSoakSeeded -chaos.seed=12345 -chaos.class=mixed -chaos.duration=30s .
//
// A failing soak reports its seed and plan digest; re-running with the same
// -chaos.seed replays the identical fault schedule.

import (
	"flag"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/soak"
)

var (
	chaosSeed     = flag.Uint64("chaos.seed", 0, "run a targeted chaos soak with this fault seed (0 skips)")
	chaosClass    = flag.String("chaos.class", "mixed", "fault class for -chaos.seed soaks: none|delays|corrupt|mixed|partition")
	chaosDuration = flag.Duration("chaos.duration", 0, "keep soaking (varying the seed deterministically) until this much time has passed")
)

// settleGoroutines waits for the goroutine count to drop back to within
// slack of base, failing the test if background workers leaked.
func settleGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var n int
	for {
		n = runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak: %d running, started with %d (slack %d)\n%s",
		n, base, slack, buf[:runtime.Stack(buf, true)])
}

// runSoak executes one soak and asserts every invariant the fault model
// promises, plus goroutine hygiene around the whole run.
func runSoak(t *testing.T, cfg soak.Config) soak.Report {
	t.Helper()
	base := runtime.NumGoroutine()
	rep, err := soak.Run(cfg)
	if err != nil {
		t.Fatalf("soak seed=%d class=%s: %v", cfg.Seed, cfg.Class, err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("seed=%d class=%s digest=%08x: %d of %d artifacts mismatched the fault-free reference",
			cfg.Seed, cfg.Class, rep.Digest, rep.Mismatches, rep.Compared)
	}
	if rep.Failed != rep.WantFailed {
		t.Fatalf("seed=%d class=%s digest=%08x: %d samples failed, expected exactly %d",
			cfg.Seed, cfg.Class, rep.Digest, rep.Failed, rep.WantFailed)
	}
	settleGoroutines(t, base, 4)
	return rep
}

// TestChaosSoakClasses: a short soak per fault class, at the trainer's
// default fetch depth and at Lookahead 4. Recoverable classes must lose
// nothing; the partition class must lose exactly the severed shard's samples
// for the severed epoch.
func TestChaosSoakClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	for _, class := range []soak.Class{soak.ClassNone, soak.ClassDelays, soak.ClassCorrupt, soak.ClassMixed, soak.ClassPartition} {
		for _, depth := range []int{0, 4} {
			class, depth := class, depth
			t.Run(fmt.Sprintf("%s/lookahead=%d", class, depth), func(t *testing.T) {
				rep := runSoak(t, soak.Config{Seed: 0xC0FFEE, Class: class, Samples: 24, Epochs: 3, Lookahead: depth})
				injected := int64(0)
				for _, s := range rep.Chaos {
					injected += s.Delays + s.Stalls + s.Corrupts + s.Closes
				}
				if class != soak.ClassPartition && class != soak.ClassNone && injected == 0 {
					t.Fatalf("class %s injected no faults — the soak exercised nothing", class)
				}
				for _, er := range rep.Epochs {
					if er.Heavy != 0 {
						t.Fatalf("epoch %d counted %d heavy samples with no classifier", er.Epoch, er.Heavy)
					}
				}
				t.Logf("class=%s digest=%08x compared=%d injected=%d failed=%d",
					class, rep.Digest, rep.Compared, injected, rep.Failed)
			})
		}
	}
}

// TestChaosSoakReproducible: the same seed must yield the identical fault
// schedule (digest) and the identical outcome, run to run — the
// replay-from-seed contract end to end.
func TestChaosSoakReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	cfg := soak.Config{Seed: 77, Class: soak.ClassPartition, Samples: 24, Epochs: 3}
	a := runSoak(t, cfg)
	b := runSoak(t, cfg)
	if a.Digest != b.Digest {
		t.Fatalf("same seed, different schedules: %08x vs %08x", a.Digest, b.Digest)
	}
	if a.Failed != b.Failed || a.Compared != b.Compared || a.Mismatches != b.Mismatches {
		t.Fatalf("same seed, different outcomes:\n a %+v\n b %+v", a, b)
	}
	for i := range a.Epochs {
		if a.Epochs[i].Samples != b.Epochs[i].Samples || a.Epochs[i].Failed != b.Epochs[i].Failed {
			t.Fatalf("epoch %d diverged: %+v vs %+v", i, a.Epochs[i], b.Epochs[i])
		}
	}
	other := soak.Config{Seed: 78, Class: cfg.Class, Samples: cfg.Samples, Epochs: cfg.Epochs}
	if other.Plan().Digest(16) == a.Digest {
		t.Fatal("different seeds produced the same plan digest")
	}
}

// TestChaosSoakLookaheadPartition: the fetch scheduler under chaos. A
// shard is severed for the middle epoch while a deep per-shard lookahead has
// speculative fetches in flight against it; the soak must still deliver
// bit-identical artifacts, account the loss exactly (the severed shard's
// owned samples, once), and replay digest-identically from the same seed.
func TestChaosSoakLookaheadPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	cfg := soak.Config{Seed: 0xD15C0, Class: soak.ClassPartition, Samples: 24, Epochs: 3, Lookahead: 8}
	a := runSoak(t, cfg)
	if a.WantFailed == 0 {
		t.Fatal("partition soak expected no failures — the severed shard owned nothing")
	}
	// Exactly one epoch absorbs the partition; the others lose nothing.
	lossy := 0
	for _, er := range a.Epochs {
		if er.Failed > 0 {
			lossy++
			if er.Failed != a.WantFailed {
				t.Fatalf("partitioned epoch lost %d samples, want exactly %d", er.Failed, a.WantFailed)
			}
		}
	}
	if lossy != 1 {
		t.Fatalf("%d epochs lost samples, want exactly the severed one", lossy)
	}
	b := runSoak(t, cfg)
	if a.Digest != b.Digest {
		t.Fatalf("same seed, different schedules: %08x vs %08x", a.Digest, b.Digest)
	}
	if a.Failed != b.Failed || a.Compared != b.Compared {
		t.Fatalf("same seed, different outcomes:\n a %+v\n b %+v", a, b)
	}
	// The deep-lookahead soak and the default-depth soak fetch through the
	// same fault schedule, so their loss accounting must agree.
	shallow := runSoak(t, soak.Config{Seed: cfg.Seed, Class: cfg.Class, Samples: cfg.Samples, Epochs: cfg.Epochs})
	if shallow.Failed != a.Failed {
		t.Fatalf("lookahead %d lost %d samples, default depth lost %d — accounting diverged", cfg.Lookahead, a.Failed, shallow.Failed)
	}
	t.Logf("lookahead=%d digest=%08x compared=%d failed=%d", cfg.Lookahead, a.Digest, a.Compared, a.Failed)
}

// TestChaosSoakSeeded is the operator-driven entry point: skipped unless
// -chaos.seed is set, then soaks that exact seed (and keeps going with
// derived seeds while -chaos.duration has budget).
func TestChaosSoakSeeded(t *testing.T) {
	if *chaosSeed == 0 {
		t.Skip("set -chaos.seed to run a targeted soak")
	}
	class, err := soak.ParseClass(*chaosClass)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(*chaosDuration)
	seed := *chaosSeed
	for i := 0; ; i++ {
		rep := runSoak(t, soak.Config{Seed: seed, Class: class})
		t.Logf("soak %d: seed=%d digest=%08x compared=%d failed=%d", i, seed, rep.Digest, rep.Compared, rep.Failed)
		if !time.Now().Before(deadline) {
			return
		}
		seed = seed*0x9E3779B97F4A7C15 + 1 // deterministic next seed, reproducible from the first
	}
}
