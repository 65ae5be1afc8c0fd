package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/wire"
)

var testProfile = Profile{
	DelayEvery:   4 << 10,
	Delay:        time.Millisecond,
	StallEvery:   32 << 10,
	Stall:        5 * time.Millisecond,
	CorruptEvery: 16 << 10,
	CloseAfter:   64 << 10,
}

// TestScheduleDeterminism: a schedule is a pure function of
// (seed, stream, conn) — the reproduce-from-seed contract.
func TestScheduleDeterminism(t *testing.T) {
	a := NewSource(42, 3, testProfile)
	b := NewSource(42, 3, testProfile)
	for conn := uint64(0); conn < 8; conn++ {
		sa, sb := a.ScheduleFor(conn), b.ScheduleFor(conn)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("conn %d: schedules diverged\n a %v\n b %v", conn, sa, sb)
		}
		if len(sa.Events) == 0 {
			t.Fatalf("conn %d: profile with every class enabled produced no events", conn)
		}
	}
	// Next() must walk the same pure function.
	if got, want := a.Next(), b.ScheduleFor(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("Next() != ScheduleFor(0)\n got %v\nwant %v", got, want)
	}
	// Different seeds and different streams must diverge.
	if s := NewSource(43, 3, testProfile).ScheduleFor(0); reflect.DeepEqual(s, a.ScheduleFor(0)) {
		t.Fatal("different seeds produced identical schedules")
	}
	if s := NewSource(42, 4, testProfile).ScheduleFor(0); reflect.DeepEqual(s, a.ScheduleFor(0)) {
		t.Fatal("different streams produced identical schedules")
	}
}

// TestScheduleShape: events are sorted by offset and nothing survives past a
// link-severing fault.
func TestScheduleShape(t *testing.T) {
	src := NewSource(7, 0, Profile{
		DelayEvery: 100, Delay: time.Millisecond,
		CloseAfter: 500,
		MaxEvents:  32,
	})
	for conn := uint64(0); conn < 16; conn++ {
		s := src.ScheduleFor(conn)
		for i := 1; i < len(s.Events); i++ {
			if s.Events[i].At < s.Events[i-1].At {
				t.Fatalf("conn %d: events out of order: %v", conn, s.Events)
			}
		}
		for i, e := range s.Events {
			if (e.Kind == KindClose || e.Kind == KindDrop) && i != len(s.Events)-1 {
				t.Fatalf("conn %d: events scheduled past a severed link: %v", conn, s.Events)
			}
		}
	}
	if s := NewSource(7, 0, Profile{}).ScheduleFor(0); len(s.Events) != 0 {
		t.Fatalf("zero profile produced events: %v", s.Events)
	}
}

// TestScheduleMixedClassesAllRepresented: a dense class must not starve a
// sparse one out of the schedule — every enabled class appears somewhere in
// the schedules of a small connection population, and the union cap holds.
func TestScheduleMixedClassesAllRepresented(t *testing.T) {
	src := NewSource(9, 0, Profile{
		DelayEvery:   50, // dense: alone it would fill MaxEvents many times over
		Delay:        time.Millisecond,
		CorruptEvery: 400,
		CloseAfter:   2000,
		MaxEvents:    32,
	})
	seen := map[Kind]bool{}
	for conn := uint64(0); conn < 8; conn++ {
		s := src.ScheduleFor(conn)
		if len(s.Events) > 32 {
			t.Fatalf("conn %d: %d events exceeds MaxEvents", conn, len(s.Events))
		}
		for _, e := range s.Events {
			seen[e.Kind] = true
		}
	}
	for _, k := range []Kind{KindDelay, KindCorrupt, KindClose} {
		if !seen[k] {
			t.Fatalf("class %v starved out of every schedule (saw %v)", k, seen)
		}
	}
}

// TestPlanDigest: the digest is stable for a seed and moves when the seed
// moves — the witness soak reports carry.
func TestPlanDigest(t *testing.T) {
	p1 := &Plan{Seed: 11, Shards: []Profile{testProfile, {}, testProfile}}
	p2 := &Plan{Seed: 11, Shards: []Profile{testProfile, {}, testProfile}}
	if p1.Digest(8) != p2.Digest(8) {
		t.Fatal("same plan, different digests")
	}
	p3 := &Plan{Seed: 12, Shards: []Profile{testProfile, {}, testProfile}}
	if p1.Digest(8) == p3.Digest(8) {
		t.Fatal("different seeds, same digest")
	}
	if (&Plan{Seed: 11}).Profile(5).Zero() != true {
		t.Fatal("out-of-range shard should have a zero profile")
	}
}

// pipePair returns both ends of an in-memory connection.
func pipePair() (net.Conn, net.Conn) { return net.Pipe() }

// TestConnCorruptFlipsByte: a scripted corruption flips exactly one byte of
// the stream, and the wire checksum downstream refuses the frame.
func TestConnCorruptFlipsByte(t *testing.T) {
	client, server := pipePair()
	defer server.Close()
	// Corrupt the very first byte span: one event at offset 1.
	c := WrapConn(client, Schedule{Events: []Event{{At: 1, Kind: KindCorrupt}}}, nil, nil, nil)
	payload := []byte{1, 2, 3, 4}
	go func() {
		c.Write(payload)
		c.Close()
	}()
	got, err := io.ReadAll(server)
	if err != nil && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4 ^ 0x80}
	if !bytes.Equal(got, want) {
		t.Fatalf("peer saw % x, want % x", got, want)
	}
	if payload[3] != 4 {
		t.Fatal("corruption mutated the caller's buffer")
	}
}

// TestConnCorruptionCaughtByChecksum: a frame written through a corrupting
// conn must surface as wire.ErrChecksum on the peer — the
// no-silent-corruption contract end to end.
func TestConnCorruptionCaughtByChecksum(t *testing.T) {
	client, server := pipePair()
	defer server.Close()
	c := WrapConn(client, Schedule{Events: []Event{{At: 10, Kind: KindCorrupt}}}, nil, nil, nil)
	go wire.Write(c, &wire.FetchBatch{RequestID: 1, Epoch: 4, Items: []wire.FetchBatchItem{{Sample: 2, Split: 3}}})
	if _, err := wire.Read(server); !errors.Is(err, wire.ErrChecksum) {
		t.Fatalf("corrupted frame read err = %v, want wire.ErrChecksum", err)
	}
}

// TestConnCloseSeversLink: a Close event fails the write with the typed
// error and the peer sees EOF-like closure; later operations stay failed.
func TestConnCloseSeversLink(t *testing.T) {
	client, server := pipePair()
	defer server.Close()
	stats := &Stats{}
	c := WrapConn(client, Schedule{Events: []Event{{At: 8, Kind: KindClose}}}, nil, stats, nil)
	if n, err := c.Write(make([]byte, 16)); !errors.Is(err, ErrInjected) || n != 0 {
		t.Fatalf("write across close event: n=%d err=%v", n, err)
	}
	if _, err := c.Write([]byte{1}); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after severed link err = %v", err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read after severed link err = %v", err)
	}
	if got := stats.Snapshot().Closes; got != 1 {
		t.Fatalf("Closes = %d, want 1", got)
	}
}

// TestConnDropSwallowsWrite: the write reports success, the peer sees the
// link die, and nothing of the frame arrives.
func TestConnDropSwallowsWrite(t *testing.T) {
	client, server := pipePair()
	c := WrapConn(client, Schedule{Events: []Event{{At: 4, Kind: KindDrop}}}, nil, nil, nil)
	if n, err := c.Write(make([]byte, 8)); err != nil || n != 8 {
		t.Fatalf("dropped write: n=%d err=%v", n, err)
	}
	buf := make([]byte, 8)
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := server.Read(buf); err == nil {
		t.Fatalf("peer received %d bytes of a dropped write", n)
	}
}

// TestConnDelayCounts: pauses fire and are counted; traffic passes intact.
func TestConnDelayCounts(t *testing.T) {
	client, server := pipePair()
	defer server.Close()
	stats := &Stats{}
	c := WrapConn(client, Schedule{Events: []Event{
		{At: 1, Kind: KindDelay, Dur: time.Millisecond},
		{At: 2, Kind: KindStall, Dur: 2 * time.Millisecond},
	}}, nil, stats, nil)
	go func() {
		c.Write([]byte{1, 2, 3})
		c.Close()
	}()
	got, _ := io.ReadAll(server)
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("peer saw % x", got)
	}
	snap := stats.Snapshot()
	if snap.Delays != 1 || snap.Stalls != 1 {
		t.Fatalf("stats = %+v, want one delay and one stall", snap)
	}
}

// TestListenerPartition: severing kills live connections and refuses new
// ones; healing restores service without restarting anything.
func TestListenerPartition(t *testing.T) {
	inner := netsim.NewPipeListener()
	defer inner.Close()
	l := WrapListener(inner, NewSource(1, 0, Profile{}), nil)

	// Echo server over the chaos listener.
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go io.Copy(conn, conn)
		}
	}()

	roundTrip := func(conn net.Conn) error {
		if _, err := conn.Write([]byte("ping")); err != nil {
			return err
		}
		buf := make([]byte, 4)
		_, err := io.ReadFull(conn, buf)
		return err
	}

	before, err := inner.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := roundTrip(before); err != nil {
		t.Fatalf("healthy round trip: %v", err)
	}

	l.Partition(true)
	if err := roundTrip(before); err == nil {
		t.Fatal("connection survived the partition")
	}
	during, err := inner.Dial()
	if err != nil {
		t.Fatal(err)
	}
	during.SetDeadline(time.Now().Add(2 * time.Second))
	if err := roundTrip(during); err == nil {
		t.Fatal("dial through a partition served traffic")
	}

	l.Partition(false)
	after, err := inner.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := roundTrip(after); err != nil {
		t.Fatalf("round trip after heal: %v", err)
	}
	after.Close()
}
