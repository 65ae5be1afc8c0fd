package netsim

import (
	"bytes"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestNewTokenBucketValidates(t *testing.T) {
	if _, err := NewTokenBucket(0, 0, nil); err == nil {
		t.Fatal("accepted zero rate")
	}
	if _, err := NewTokenBucket(-5, 0, nil); err == nil {
		t.Fatal("accepted negative rate")
	}
	if _, err := NewTokenBucket(100, -1, nil); err == nil {
		t.Fatal("accepted negative burst")
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewTokenBucket(rate, 0, nil); err == nil {
			t.Fatalf("accepted rate %v", rate)
		}
	}
	tb, err := NewTokenBucket(100, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tb.rate != 100 {
		t.Fatalf("rate = %v", tb.rate)
	}
	for _, rate := range []float64{0, math.NaN(), math.Inf(1)} {
		if err := tb.SetRate(rate); err == nil {
			t.Fatalf("SetRate accepted %v", rate)
		}
	}
	if tb.rate != 100 {
		t.Fatalf("a refused SetRate moved the rate to %v", tb.rate)
	}
}

func TestTokenBucketBurstIsFree(t *testing.T) {
	tb, _ := NewTokenBucket(1, 1000, nil) // 1 B/s but big burst
	start := time.Now()
	tb.waitN(1000, 0)
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("burst-sized reservation blocked")
	}
}

func TestTokenBucketEnforcesRate(t *testing.T) {
	// 1 MB/s, no burst: 200 KB must take ≈200 ms.
	tb, _ := NewTokenBucket(1e6, 0, nil)
	start := time.Now()
	for i := 0; i < 20; i++ {
		tb.waitN(10000, 0)
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Fatalf("200KB at 1MB/s took only %v", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("200KB at 1MB/s took %v", elapsed)
	}
}

func TestTokenBucketZeroAndNegativeN(t *testing.T) {
	tb, _ := NewTokenBucket(1, 0, nil)
	done := make(chan struct{})
	go func() {
		tb.waitN(0, 0)
		tb.waitN(-5, 0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("WaitN(<=0) blocked")
	}
}

// Property: total time for sequential reservations is at least
// (total - burst) / rate, i.e. the bucket never over-delivers.
func TestTokenBucketNeverOverDelivers(t *testing.T) {
	f := func(chunks8 uint8) bool {
		chunks := int(chunks8%5) + 2
		const rate, burst, per = 2e6, 4096, 50000
		tb, err := NewTokenBucket(rate, burst, nil)
		if err != nil {
			return false
		}
		start := time.Now()
		for i := 0; i < chunks; i++ {
			tb.waitN(per, 0)
		}
		minSec := (float64(chunks*per) - burst) / rate
		// Allow 20% scheduling slack below the theoretical floor.
		return time.Since(start).Seconds() >= minSec*0.8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestPipeListenerRoundTrip(t *testing.T) {
	l := NewPipeListener()
	defer l.Close()

	var got []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Error(err)
			return
		}
		got = buf
		conn.Write([]byte("pong!"))
	}()

	client, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("ping!")); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 5)
	if _, err := io.ReadFull(client, reply); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if string(got) != "ping!" || string(reply) != "pong!" {
		t.Fatalf("round trip got %q / %q", got, reply)
	}
}

func TestPipeListenerClose(t *testing.T) {
	l := NewPipeListener()
	l.Close()
	l.Close() // idempotent
	if _, err := l.Accept(); err != errListenerClosed {
		t.Fatalf("Accept after close: %v", err)
	}
	if _, err := l.Dial(); err != errListenerClosed {
		t.Fatalf("Dial after close: %v", err)
	}
	if l.Addr().Network() != "pipe" {
		t.Fatal("Addr network")
	}
}

func TestShapedConnDeliversBytesIntact(t *testing.T) {
	l := NewPipeListener()
	defer l.Close()
	tb, _ := NewTokenBucket(100e6, 1<<20, nil)

	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 40000) // 80 KB, > shapeChunk
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		shaped := shape(conn, tb)
		defer shaped.Close()
		if _, err := shaped.Write(payload); err != nil {
			t.Error(err)
		}
	}()
	client, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !bytes.Equal(got, payload) {
		t.Fatal("shaped transfer corrupted payload")
	}
}

func TestShapedConnThrottles(t *testing.T) {
	l := NewPipeListener()
	defer l.Close()
	// 1 MB/s with small burst; transfer 300 KB; expect ≥ ~250 ms.
	tb, _ := NewTokenBucket(1e6, 32<<10, nil)
	payload := make([]byte, 300<<10)

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		shaped := shape(conn, tb)
		defer shaped.Close()
		shaped.Write(payload)
	}()
	client, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := io.ReadFull(client, make([]byte, len(payload))); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("300KB at 1MB/s finished in %v", elapsed)
	}
}

func TestShapedListenerWrapsAccepted(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := NewTokenBucket(10e6, 1<<16, nil)
	l := ShapeListener(inner, tb)
	defer l.Close()

	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		if _, ok := conn.(*shapedConn); !ok {
			t.Error("accepted conn is not shaped")
		}
		conn.Write([]byte("ok"))
		conn.Close()
	}()

	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	buf := make([]byte, 2)
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ok" {
		t.Fatalf("got %q", buf)
	}
}

func TestSharedBucketSerializesConnections(t *testing.T) {
	// Two connections sharing one 1 MB/s bucket should take ~2x longer in
	// aggregate than one connection alone would for the same per-conn bytes.
	l := NewPipeListener()
	defer l.Close()
	tb, _ := NewTokenBucket(1e6, 0, nil)
	const per = 150 << 10

	var wg sync.WaitGroup
	serve := func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			return
		}
		shaped := shape(conn, tb)
		defer shaped.Close()
		shaped.Write(make([]byte, per))
	}
	wg.Add(2)
	go serve()
	go serve()

	start := time.Now()
	var cg sync.WaitGroup
	for i := 0; i < 2; i++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			c, err := l.Dial()
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			io.ReadFull(c, make([]byte, per))
		}()
	}
	cg.Wait()
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("300KB aggregate at shared 1MB/s finished in %v", elapsed)
	}
}

func TestMbps(t *testing.T) {
	if got := Mbps(500); got != 62.5e6 {
		t.Fatalf("Mbps(500) = %v, want 62.5e6 B/s", got)
	}
}
