package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/storage"
)

// stepClock reads 2.25 s later every time it is asked.
func stepClock() func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(2250 * time.Millisecond)
		return t
	}
}

// syncBuffer is the server's stderr: its logger writes while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// testFlags is the flag set a test hands run: a parse error comes back and
// the log lands in stderr.
func testFlags(stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("sophon-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func TestFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "0"}, "-n must be positive, got 0"},
		{[]string{"-shards", "-2"}, "-shards must be positive, got -2"},
		{[]string{"-max-inflight", "-1"}, "-max-inflight must be non-negative, got -1"},
		{[]string{"-max-inflight=0"}, "-max-inflight must be positive when set explicitly (omit it for the default)"},
		{[]string{"-cores", "-1"}, "-cores must be non-negative, got -1"},
		{[]string{"-mbps", "NaN"}, "-mbps must be a finite value >= 0, got NaN"},
		{[]string{"-mbps", "+Inf"}, "-mbps must be a finite value >= 0, got +Inf"},
		{[]string{"-n", "2", "-slowdown", "NaN"}, "storage: slowdown NaN is not a finite value >= 1"},
		{[]string{"-n", "2", "-slowdown", "0.5"}, "storage: slowdown 0.50 is not a finite value >= 1"},
		{[]string{"-n", "2", "-min-dim", "500"}, "dataset: bad dim range [500, 480]"},
		{[]string{"-n", "2", "-addr", "localhost"}, `bad -addr "localhost": address localhost: missing port in address`},
		{[]string{"-n", "2", "-admit-queue", "3"}, "-admit-queue/-retry-after need -admit-bytes > 0"},
		{[]string{"-n", "2", "-retry-after", "1s"}, "-admit-queue/-retry-after need -admit-bytes > 0"},
		{[]string{"-data-dir", t.TempDir()}, "dataset: read manifest: open "},
	} {
		var stderr bytes.Buffer
		err := run(context.Background(), testFlags(&stderr), c.args, time.Now)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %s", c.args, err, c.want)
		}
	}
	var stderr bytes.Buffer
	err := run(context.Background(), testFlags(&stderr), []string{"-prefetch"}, time.Now)
	if err == nil || err.Error() != "flag provided but not defined: -prefetch" || !strings.Contains(stderr.String(), "Usage: sophon-server [flags]") {
		t.Errorf("unknown flag: err = %v, stderr %q", err, stderr.String())
	}
}

// The golden is also the flag table: 18 flags and -version.
func TestHelpGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if err := run(context.Background(), testFlags(&stderr), []string{"-help"}, time.Now); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("err = %v, want flag.ErrHelp", err)
	}
	if stderr.String() != string(want) {
		t.Fatalf("-help prints\n%s\nwant\n%s", stderr.String(), want)
	}
	if n := strings.Count(stderr.String(), "\n  -"); n != 19 {
		t.Fatalf("%d flags listed, want 18 and -version", n)
	}
}

// One start on a port the kernel picks: the log says what was built and how
// long it took, the address it names answers a one-item FetchBatch with the
// stored bytes, and cancelling the context ends run with nothing left behind.
func TestServeOneFetchAndShutDown(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stderr := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, testFlags(stderr), []string{"-addr", "127.0.0.1:0", "-n", "4", "-seed", "5", "-max-dim", "120", "-cores", "1"}, stepClock())
	}()
	serving := regexp.MustCompile(`serving "synthetic" on (127\.0\.0\.1:\d+) \(1 shard\(s\), 1 offload cores each\)`)
	var addr string
	for deadline := time.Now().Add(30 * time.Second); addr == ""; time.Sleep(5 * time.Millisecond) {
		if m := serving.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
		}
		select {
		case err := <-done:
			t.Fatalf("run returned %v before serving:\n%s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("not serving after 30 s:\n%s", stderr.String())
		}
	}

	set, err := dataset.NewSyntheticImageSet(dataset.SyntheticOptions{Name: "synthetic", N: 4, Seed: 5, MinDim: 80, MaxDim: 120})
	if err != nil {
		t.Fatal(err)
	}
	want, err := set.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, b := range want {
		total += len(b)
	}
	ready := fmt.Sprintf("store ready: 4 objects, %.1f MB in 2.25 s on %d cores\n", float64(total)/1e6, runtime.GOMAXPROCS(0))
	if !strings.Contains(stderr.String(), ready) {
		t.Errorf("log lacks %q:\n%s", ready, stderr.String())
	}

	client, err := storage.DialWithOptions(addr, storage.ClientOptions{JobID: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.FetchBatch(context.Background(), []uint32{2}, []int{0}, 1)
	if err != nil || len(res) != 1 || res[0].Err != nil {
		t.Fatalf("FetchBatch: %v, %+v", err, res)
	}
	if a := res[0].Artifact; a.Kind != pipeline.KindRaw || !bytes.Equal(a.Raw, want[2]) {
		t.Errorf("sample 2: kind %v, %d bytes; stored object has %d", a.Kind, len(a.Raw), len(want[2]))
	}
	tier := storage.Tier{Samples: 4, Pipeline: pipeline.DefaultStandard().Fingerprint(), Cores: 1, Slowdown: 1, Shards: 1}
	if client.Tier() != tier {
		t.Errorf("server announces %+v, want %+v", client.Tier(), tier)
	}
	client.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("run still serving 30 s after cancel:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "shutting down") {
		t.Errorf("no shutdown line:\n%s", stderr.String())
	}
	// Connection handlers and the closer exit a moment after Serve returns.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before run\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// A shard that cannot bind its port fails run, and the shards before it
// give their ports back: with shard 1's port held elsewhere, run -shards 2
// returns the bind error and shard 0's port can be bound again.
func TestFailedShardReleasesEarlierPorts(t *testing.T) {
	var held net.Listener
	var base int
	for try := 0; ; try++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base = l.Addr().(*net.TCPAddr).Port - 1
		probe, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(base))
		if err == nil {
			probe.Close()
			held = l
			break
		}
		l.Close()
		if try == 20 {
			t.Fatalf("no free port below a held one in 20 tries: %v", err)
		}
	}
	defer held.Close()

	shard0 := "127.0.0.1:" + strconv.Itoa(base)
	shard1 := "127.0.0.1:" + strconv.Itoa(base+1)
	err := run(context.Background(), testFlags(io.Discard), []string{"-addr", shard0, "-shards", "2", "-n", "16", "-max-dim", "120", "-cores", "1"}, stepClock())
	if err != nil && strings.Contains(err.Error(), shard0+": ") {
		t.Skipf("another process took shard 0's port after the probe: %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), shard1+": ") || !strings.Contains(err.Error(), "address already in use") {
		t.Fatalf("run with shard 1's port held: %v, want shard 1's bind error", err)
	}
	l, err := net.Listen("tcp", shard0)
	if err != nil {
		t.Fatalf("shard 0's port is still bound after run returned: %v", err)
	}
	l.Close()
}
