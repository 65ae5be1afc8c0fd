package storage

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/wire"
)

// defaultRequestTimeout bounds a single request round trip so a stalled
// server cannot hang a caller forever; override via ClientOptions.
const defaultRequestTimeout = 30 * time.Second

// Client-side errors.
var (
	ErrFetchFailed   = errors.New("storage: fetch failed on server")
	ErrSampleMissing = errors.New("storage: sample not found")
	ErrBadSplitReq   = errors.New("storage: server rejected split")
	ErrClientClosed  = errors.New("storage: client closed")
	// errRequestTimeout reports that the per-request deadline elapsed while
	// the caller's own context was still live. It is retryable: the session
	// may be poisoned but the request itself is idempotent.
	errRequestTimeout = errors.New("storage: request timed out")
)

// ClientOptions configures a session; the zero value of each field selects a
// sane default.
type ClientOptions struct {
	// JobID identifies the training job in the handshake.
	JobID uint64
	// RequestTimeout bounds each request round trip (0 → defaultRequestTimeout;
	// negative → no timeout).
	RequestTimeout time.Duration
}

// Client is a compute-node session to the storage server. One Client
// multiplexes many concurrent requests over a single connection: a writer
// goroutine serializes outgoing frames, a reader goroutine demultiplexes
// responses to waiting callers by RequestID, so responses may interleave in
// any order. All methods are safe for concurrent use.
type Client struct {
	conn    net.Conn
	ack     wire.HelloAck
	timeout time.Duration

	writeCh chan wire.Message

	mu      sync.Mutex
	nextReq uint64
	pending map[uint64]chan wire.Message
	err     error // first session-fatal error
	closed  bool

	done      chan struct{}
	closeOnce sync.Once
}

// NewClientWithOptions performs the handshake and starts the session's
// writer and reader goroutines. On error the connection is closed.
func NewClientWithOptions(conn net.Conn, opts ClientOptions) (*Client, error) {
	timeout := opts.RequestTimeout
	if timeout == 0 {
		timeout = defaultRequestTimeout
	}
	// The handshake is a round trip like any other: a peer that never
	// answers must not hold the caller (or a redial under its lock) forever.
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
	}
	ack, err := handshake(conn, opts.JobID)
	if err != nil {
		conn.Close()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, fmt.Errorf("%w after %v: %w", errRequestTimeout, timeout, err)
		}
		return nil, fmt.Errorf("storage: %w", err)
	}
	if timeout > 0 {
		conn.SetDeadline(time.Time{})
	}

	c := &Client{
		conn:    conn,
		ack:     ack,
		timeout: timeout,
		writeCh: make(chan wire.Message),
		pending: make(map[uint64]chan wire.Message),
		done:    make(chan struct{}),
	}
	go c.writeLoop()
	go c.readLoop()
	return c, nil
}

// handshake sends Hello and reads the server's HelloAck.
func handshake(conn net.Conn, jobID uint64) (wire.HelloAck, error) {
	if err := wire.Write(conn, &wire.Hello{Version: wire.Version, JobID: jobID}); err != nil {
		return wire.HelloAck{}, fmt.Errorf("hello: %w", err)
	}
	msg, err := wire.Read(conn)
	if err != nil {
		return wire.HelloAck{}, fmt.Errorf("hello ack: %w", err)
	}
	switch m := msg.(type) {
	case *wire.HelloAck:
		return *m, nil
	case *wire.ErrorResp:
		return wire.HelloAck{}, fmt.Errorf("server rejected handshake: %s", m.Message)
	default:
		return wire.HelloAck{}, fmt.Errorf("unexpected handshake reply %s", msg.Type())
	}
}

// DialWithOptions connects over TCP and handshakes with explicit options.
func DialWithOptions(addr string, opts ClientOptions) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("storage: dial %s: %w", addr, err)
	}
	return NewClientWithOptions(conn, opts)
}

// Tier returns the facts the server's handshake stated.
func (c *Client) Tier() Tier {
	a := c.ack
	return Tier{
		Samples:  int(a.NumSamples),
		Pipeline: pipeline.Fingerprint{Ops: a.Ops, Crop: int(a.Crop), FlipP: a.FlipP},
		Cores:    int(a.Cores),
		Slowdown: a.Slowdown,
		Shard:    int(a.Shard),
		Shards:   int(a.Shards),
	}
}

// writeLoop is the single goroutine allowed to write frames after the
// handshake; it serializes concurrent requests onto the connection.
func (c *Client) writeLoop() {
	for {
		select {
		case msg := <-c.writeCh:
			if err := wire.Write(c.conn, msg); err != nil {
				c.fail(fmt.Errorf("storage: send: %w", err))
				return
			}
		case <-c.done:
			return
		}
	}
}

// readLoop is the single goroutine reading the connection; it routes each
// response to the waiting caller by RequestID. A response whose RequestID is
// no longer pending (the caller cancelled) is dropped silently — cancellation
// must not poison the session for other in-flight requests.
func (c *Client) readLoop() {
	for {
		msg, err := wire.Read(c.conn)
		if err != nil {
			c.fail(fmt.Errorf("storage: read: %w", err))
			return
		}
		var reqID uint64
		switch m := msg.(type) {
		case *wire.FetchBatchResp:
			reqID = m.RequestID
		case *wire.StatsResp:
			reqID = m.RequestID
		case *wire.RetryAfter:
			reqID = m.RequestID
		case *wire.ErrorResp:
			if m.RequestID == 0 {
				// Connection-level error: the server is tearing us down.
				c.fail(fmt.Errorf("storage: server error %d: %s", m.Code, m.Message))
				return
			}
			reqID = m.RequestID
		default:
			c.fail(fmt.Errorf("storage: unexpected message %s on session", msg.Type()))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[reqID]
		if ok {
			delete(c.pending, reqID)
		}
		c.mu.Unlock()
		if ok {
			ch <- msg // buffered(1); the reader never blocks here
		} else {
			// Dropped response (caller cancelled): reclaim its pooled buffers.
			wire.Recycle(msg)
		}
	}
}

// fail poisons the session with err and wakes every in-flight caller.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil && !c.closed {
		c.err = err
	}
	c.mu.Unlock()
	c.closeOnce.Do(func() {
		close(c.done)
		c.conn.Close()
	})
}

// sessionErr returns the error in-flight callers should observe.
func (c *Client) sessionErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClientClosed
}

// roundTrip sends req (which must already carry RequestID id) and waits for
// the matching response, honoring ctx and the per-request timeout.
func (c *Client) roundTrip(ctx context.Context, id uint64, req wire.Message) (wire.Message, error) {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}

	ch := make(chan wire.Message, 1)
	c.mu.Lock()
	if c.closed || c.err != nil {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		return nil, err
	}
	c.pending[id] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}()

	select {
	case c.writeCh <- req:
	case <-ctx.Done():
		return nil, c.ctxErr(ctx)
	case <-c.done:
		return nil, c.sessionErr()
	}

	var msg wire.Message
	select {
	case msg = <-ch:
	case <-ctx.Done():
		return nil, c.ctxErr(ctx)
	case <-c.done:
		select {
		case msg = <-ch: // answered before the session ended: the answer stands
		default:
			return nil, c.sessionErr()
		}
	}
	if er, ok := msg.(*wire.ErrorResp); ok {
		return nil, fmt.Errorf("storage: server error %d: %s", er.Code, er.Message)
	}
	if ra, ok := msg.(*wire.RetryAfter); ok {
		// Admission-control shed: the request was rejected but the
		// session is healthy. Surface the typed error so a retry layer
		// can back off by the server's hint without reconnecting.
		return nil, &retryAfterError{
			Delay:  time.Duration(ra.Millis) * time.Millisecond,
			Queued: int(ra.Queued),
		}
	}
	return msg, nil
}

// ctxErr maps a context error to the session's error vocabulary: a
// per-request timeout that fired while the caller's own context was still
// live becomes errRequestTimeout (retryable).
func (c *Client) ctxErr(ctx context.Context) error {
	err := ctx.Err()
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w after %v", errRequestTimeout, c.timeout)
	}
	return err
}

// reserveID allocates the next RequestID. IDs start at 1; 0 is reserved for
// connection-level messages.
func (c *Client) reserveID() uint64 {
	c.mu.Lock()
	c.nextReq++
	id := c.nextReq
	c.mu.Unlock()
	return id
}

// FetchResult carries one fetched sample plus its transfer accounting.
// Status/Err report the item's own failure (Err wraps ErrSampleMissing,
// ErrBadSplitReq, or ErrFetchFailed); Artifact is only valid when Err is nil.
type FetchResult struct {
	Sample    uint32
	Artifact  pipeline.Artifact
	Split     int
	Fidelity  int // refinement scans the directive asked to withhold
	WireBytes int // total response frame size over the link
	Status    wire.FetchStatus
	Err       error
}

// statusErr maps a non-OK fetch status to a client error, or nil for OK.
func statusErr(status wire.FetchStatus, sample uint32, split int) error {
	switch status {
	case wire.FetchOK:
		return nil
	case wire.FetchNotFound:
		return fmt.Errorf("%w: sample %d", ErrSampleMissing, sample)
	case wire.FetchBadSplit:
		return fmt.Errorf("%w: sample %d split %d", ErrBadSplitReq, sample, split)
	default:
		return fmt.Errorf("%w: sample %d split %d", ErrFetchFailed, sample, split)
	}
}

// Fetch implements Fetcher.
func (c *Client) Fetch(ctx context.Context, sample uint32, split int, epoch uint64) (FetchResult, error) {
	return FetchOne(ctx, c, sample, split, epoch)
}

// FetchBatch implements Fetcher: one FetchBatch frame answered by one
// FetchBatchResp. splits must be the same length as samples; each is a
// packed directive (PackDirective): a plain split value requests full
// fidelity, a packed fidelity asks the server to withhold that many
// progressive refinement scans (127 or more withhold them all), and Rows
// asks for only the part the epoch's crop reads.
func (c *Client) FetchBatch(ctx context.Context, samples []uint32, splits []int, epoch uint64) ([]FetchResult, error) {
	if len(samples) == 0 {
		return nil, errors.New("storage: empty batch")
	}
	if len(samples) != len(splits) {
		return nil, fmt.Errorf("storage: %d samples but %d splits", len(samples), len(splits))
	}
	if len(samples) > wire.MaxBatchItems {
		return nil, fmt.Errorf("storage: batch of %d exceeds %d", len(samples), wire.MaxBatchItems)
	}
	items := make([]wire.FetchBatchItem, len(samples))
	for i := range samples {
		split, fidelity := UnpackDirective(splits[i])
		if split < 0 || split > 255 {
			return nil, fmt.Errorf("storage: split %d out of range", split)
		}
		if fidelity < 0 || fidelity > 255 {
			return nil, fmt.Errorf("storage: fidelity %d out of range", fidelity)
		}
		items[i] = wire.FetchBatchItem{Sample: samples[i], Split: uint8(split), Fidelity: uint8(min(fidelity, 127)), Rows: splits[i]&Rows != 0}
	}

	id := c.reserveID()
	req := &wire.FetchBatch{RequestID: id, Epoch: epoch, Items: items}
	msg, err := c.roundTrip(ctx, id, req)
	if err != nil {
		return nil, err
	}
	resp, ok := msg.(*wire.FetchBatchResp)
	if !ok {
		wire.Recycle(msg)
		return nil, fmt.Errorf("storage: unexpected batch reply %s", msg.Type())
	}
	// Every exit below is done with the response's pooled artifact buffers:
	// DecodeArtifact copies payloads out, so the whole batch is recycled here.
	defer wire.Recycle(resp)
	if len(resp.Items) != len(items) {
		return nil, fmt.Errorf("storage: batch returned %d items, want %d", len(resp.Items), len(items))
	}
	// Amortize the frame overhead across items by payload share.
	frame := wire.FrameSize(resp)
	var payload int
	for _, it := range resp.Items {
		payload += len(it.Artifact)
	}
	overhead := frame - payload
	out := make([]FetchResult, len(resp.Items))
	for i, it := range resp.Items {
		_, fidelity := UnpackDirective(splits[i])
		out[i] = FetchResult{Sample: it.Sample, Split: int(it.Split), Fidelity: fidelity, Status: it.Status}
		if err := statusErr(it.Status, it.Sample, int(it.Split)); err != nil {
			out[i].Err = err
			continue
		}
		art, err := pipeline.DecodeArtifact(it.Artifact)
		if err != nil {
			out[i].Err = fmt.Errorf("storage: decode batch artifact %d: %w", it.Sample, err)
			continue
		}
		share := overhead / len(resp.Items)
		if i == 0 {
			share += overhead % len(resp.Items)
		}
		out[i].Artifact = art
		out[i].WireBytes = len(it.Artifact) + share
	}
	return out, nil
}

// Stats fetches the server's counters.
func (c *Client) Stats(ctx context.Context) (wire.StatsResp, error) {
	id := c.reserveID()
	msg, err := c.roundTrip(ctx, id, &wire.StatsReq{RequestID: id})
	if err != nil {
		return wire.StatsResp{}, err
	}
	resp, ok := msg.(*wire.StatsResp)
	if !ok {
		return wire.StatsResp{}, fmt.Errorf("storage: unexpected stats reply %s", msg.Type())
	}
	return *resp, nil
}

// Close shuts the session down; it is idempotent. In-flight requests
// unblock with ErrClientClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.closeOnce.Do(func() {
		close(c.done)
		c.conn.Close()
	})
	return nil
}
