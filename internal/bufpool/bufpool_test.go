package bufpool

import (
	"sync"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 20, 20 - minClassBits}, {1 << maxClassBits, numClasses - 1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
	if classFor(1<<maxClassBits+1) != -1 {
		t.Error("oversized request should map to class -1")
	}
}

func TestGetReturnsRequestedLength(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 1 << 16} {
		b := GetBytes(n)
		if len(b) != n {
			t.Fatalf("GetBytes(%d) returned len %d", n, len(b))
		}
		PutBytes(b)
	}
	f := GetFloat32(100)
	if len(f) != 100 {
		t.Fatalf("GetFloat32(100) returned len %d", len(f))
	}
	PutFloat32(f)
}

func TestPutRejectsForeignBuffers(t *testing.T) {
	before := ByteStats().Rejected
	PutBytes(make([]byte, 100))      // cap 100 is not a class size
	PutBytes(nil)                    // empty
	PutBytes(make([]byte, 0, 1<<27)) // beyond the largest class
	if got := ByteStats().Rejected - before; got != 3 {
		t.Fatalf("rejected %d foreign buffers, want 3", got)
	}
}

func TestRoundTripReusesMemory(t *testing.T) {
	b := GetBytes(1000)
	b[0] = 42
	p := &b[0]
	PutBytes(b)
	// The very next same-class Get should hand the buffer back (pools are
	// per-P; a single goroutine sees its own private slot first).
	c := GetBytes(900)
	if &c[0] != p {
		t.Skip("pool did not return the same buffer (GC or scheduling); not a correctness failure")
	}
	if cap(c) != 1024 {
		t.Fatalf("recycled cap %d, want 1024", cap(c))
	}
	PutBytes(c)
}

func TestOversizedFallsBackToMake(t *testing.T) {
	n := 1<<maxClassBits + 1
	b := GetBytes(n)
	if len(b) != n {
		t.Fatalf("oversized Get len %d", len(b))
	}
	PutBytes(b) // dropped, must not panic
}

func TestSteadyStateAllocs(t *testing.T) {
	// Warm the pool and the header pool.
	for i := 0; i < 8; i++ {
		PutBytes(GetBytes(4096))
	}
	avg := testing.AllocsPerRun(200, func() {
		b := GetBytes(4096)
		PutBytes(b)
	})
	if avg > 0.5 {
		t.Errorf("steady-state Get/Put allocates %.2f times per op, want ~0", avg)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := 64 << (uint(i+g) % 8)
				b := GetBytes(n)
				for j := range b {
					b[j] = byte(g)
				}
				for j := range b {
					if b[j] != byte(g) {
						t.Errorf("buffer shared across goroutines")
						return
					}
				}
				PutBytes(b)
			}
		}(g)
	}
	wg.Wait()
}
