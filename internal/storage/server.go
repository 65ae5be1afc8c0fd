package storage

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/imaging"
	"repro/internal/pipeline"
	"repro/internal/wire"
)

// ServerConfig configures a storage server.
type ServerConfig struct {
	Store    *Store
	Pipeline *pipeline.Pipeline
	// Cores is the CPU-core budget for offloaded preprocessing; 0 disables
	// offloading (fetches with Split > 0 fail).
	Cores int
	// Slowdown models weaker storage-node CPUs (1 = same as compute node).
	Slowdown float64
	// IdleTimeout drops connections with no request for this long
	// (0 = never). Applies between requests, not during handling.
	IdleTimeout time.Duration
	// MaxInFlight bounds concurrently handled requests per connection
	// (0 → DefaultServerMaxInFlight). Requests beyond the bound queue in
	// the read loop, applying backpressure through the socket.
	MaxInFlight int
	// Admission is the global admission controller: an in-flight byte
	// budget with per-tenant weighted queues and retry-after shedding,
	// enforced across every connection. Several servers may share one
	// controller (cluster.Launch does, making the budget tier-wide). Nil
	// disables admission control — the per-connection MaxInFlight
	// semaphore is then the only bound.
	Admission *AdmissionController
	// Logger receives connection-level errors; nil silences them.
	Logger *log.Logger
}

// DefaultServerMaxInFlight is the per-connection concurrent-request bound
// when ServerConfig.MaxInFlight is zero.
const DefaultServerMaxInFlight = 32

// Server answers wire-protocol requests: handshake, fetches with offload
// directives, and stats. Each connection is a multiplexed session: a read
// loop dispatches requests to bounded handler goroutines and a single
// writer goroutine serializes responses in completion order, so responses
// to a pipelining client genuinely interleave. The executor's core budget
// still bounds actual preprocessing parallelism across all connections.
type Server struct {
	store       *Store
	pipe        *pipeline.Pipeline
	exec        *Executor
	counters    *Counters
	logger      *log.Logger
	idleTimeout time.Duration
	maxInFlight int
	admission   *AdmissionController
	// shutdown closes when the server does, unblocking requests parked in
	// the admission queue.
	shutdown chan struct{}

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer validates the configuration and builds a server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("storage: server needs a store")
	}
	if cfg.Pipeline == nil {
		return nil, errors.New("storage: server needs a pipeline")
	}
	if cfg.Slowdown == 0 {
		cfg.Slowdown = 1
	}
	counters := &Counters{}
	exec, err := NewExecutor(cfg.Pipeline, cfg.Cores, cfg.Slowdown, counters)
	if err != nil {
		return nil, err
	}
	if cfg.IdleTimeout < 0 {
		return nil, errors.New("storage: negative idle timeout")
	}
	if cfg.MaxInFlight < 0 {
		return nil, errors.New("storage: negative max in-flight")
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = DefaultServerMaxInFlight
	}
	return &Server{
		store:       cfg.Store,
		pipe:        cfg.Pipeline,
		exec:        exec,
		counters:    counters,
		logger:      cfg.Logger,
		idleTimeout: cfg.IdleTimeout,
		maxInFlight: maxInFlight,
		admission:   cfg.Admission,
		shutdown:    make(chan struct{}),
		conns:       make(map[net.Conn]struct{}),
	}, nil
}

// Counters exposes the server's accounting (read with atomic loads).
func (s *Server) Counters() *Counters { return s.counters }

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("storage: server closed")

// Serve accepts connections on l until Close. It returns ErrServerClosed on
// graceful shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listener = l
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return fmt.Errorf("storage: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.counters.Connections.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer s.counters.Connections.Add(-1)
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listener, closes active connections, and waits for
// handlers to drain. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.shutdown)
	l := s.listener
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// send writes a message, charging its frame size to the traffic counter
// before the write: a frame the client has received is then always covered
// by any stats snapshot taken afterwards, so byte counts read through the
// Stats RPC are monotone with respect to what the client observed.
func (s *Server) send(conn net.Conn, m wire.Message) error {
	s.counters.BytesSent.Add(uint64(wire.FrameSize(m)))
	return wire.Write(conn, m)
}

func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()

	// Handshake.
	first, err := wire.Read(conn)
	if err != nil {
		if err != io.EOF {
			s.logf("storage: handshake read: %v", err)
		}
		return
	}
	hello, ok := first.(*wire.Hello)
	if !ok {
		s.send(conn, &wire.ErrorResp{Code: wire.CodeBadRequest, Message: "expected Hello"})
		return
	}
	if hello.Version != wire.Version {
		s.send(conn, &wire.ErrorResp{Code: wire.CodeBadRequest,
			Message: fmt.Sprintf("unsupported version %d", hello.Version)})
		return
	}
	jobID := hello.JobID
	if err := s.send(conn, &wire.HelloAck{
		Version:     wire.Version,
		DatasetName: s.store.Name(),
		NumSamples:  uint32(s.store.N()),
	}); err != nil {
		s.logf("storage: handshake ack: %v", err)
		return
	}

	// Response writer: the single goroutine writing frames after the
	// handshake, serializing responses in whatever order handlers finish.
	// On a write error it closes the connection (unblocking the read loop)
	// but keeps draining so handlers never block on send.
	respCh := make(chan wire.Message, s.maxInFlight)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		broken := false
		for m := range respCh {
			if broken {
				// Still recycle pooled artifact buffers while draining.
				wire.Recycle(m)
				continue
			}
			err := s.send(conn, m)
			wire.Recycle(m)
			if err != nil {
				if !errors.Is(err, net.ErrClosed) {
					s.logf("storage: send resp: %v", err)
				}
				conn.Close()
				broken = true
			}
		}
	}()

	// Read loop: dispatch each request to its own handler goroutine,
	// bounded by maxInFlight. Fetch and stats requests are handled
	// uniformly so responses interleave by completion order.
	sem := make(chan struct{}, s.maxInFlight)
	var wg sync.WaitGroup
	dispatch := func(handle func() wire.Message) {
		sem <- struct{}{}
		wg.Add(1)
		s.counters.InFlight.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			defer s.counters.InFlight.Add(-1)
			respCh <- handle()
		}()
	}

readLoop:
	for {
		if s.idleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.idleTimeout)); err != nil {
				s.logf("storage: set deadline: %v", err)
				break
			}
		}
		msg, err := wire.Read(conn)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
				s.logf("storage: read: %v", err)
			}
			break
		}
		switch req := msg.(type) {
		case *wire.FetchBatch:
			dispatch(func() wire.Message { return s.admitFetchBatch(jobID, req) })
		case *wire.StatsReq:
			dispatch(func() wire.Message {
				return &wire.StatsResp{
					RequestID:      req.RequestID,
					SamplesServed:  s.counters.SamplesServed.Load(),
					OpsExecuted:    s.counters.OpsExecuted.Load(),
					BytesSent:      s.counters.BytesSent.Load(),
					ServerCPUNanos: s.counters.CPUNanos.Load(),
				}
			})
		default:
			// Connection-level protocol violation: RequestID 0 tells the
			// client the whole session is done.
			respCh <- &wire.ErrorResp{Code: wire.CodeBadRequest,
				Message: fmt.Sprintf("unexpected %s", msg.Type())}
			break readLoop
		}
	}
	wg.Wait()
	close(respCh)
	<-writerDone
}

// estimateFetchBytes predicts a fetch's in-flight footprint for admission:
// the raw stored size of the sample (the server buffers at most that much —
// offloaded artifacts are smaller). Unknown samples charge one byte; the
// handler will answer FetchNotFound cheaply.
func (s *Server) estimateFetchBytes(sample uint32) int64 {
	raw, err := s.store.Get(sample)
	if err != nil {
		return 1
	}
	return int64(len(raw))
}

// admitFetchBatch serves req under the admission controller, charging the
// items' estimated bytes against the global in-flight budget for the duration
// of the handler (an approximation of "until the frame is written": the
// response is handed to the writer goroutine at release time, whose queue is
// bounded by maxInFlight). A shed request answers with a RetryAfter frame
// carrying the controller's backoff hint instead of a response.
func (s *Server) admitFetchBatch(jobID uint64, req *wire.FetchBatch) wire.Message {
	if s.admission == nil {
		return s.handleFetchBatch(jobID, req)
	}
	var bytes int64
	for _, item := range req.Items {
		bytes += s.estimateFetchBytes(item.Sample)
	}
	release, err := s.admission.Acquire(jobID, bytes, s.shutdown)
	if err != nil {
		var ra *RetryAfterError
		if errors.As(err, &ra) {
			s.counters.ShedLoad.Add(1)
			return &wire.RetryAfter{
				RequestID: req.RequestID,
				Millis:    uint32(ra.Delay.Milliseconds()),
				Queued:    uint32(ra.Queued),
			}
		}
		// Shutdown while queued: the connection is going away with us.
		return &wire.ErrorResp{RequestID: req.RequestID, Code: wire.CodeInternal, Message: "server shutting down"}
	}
	defer release()
	return s.handleFetchBatch(jobID, req)
}

// handleFetchBatch serves a fetch: the items of a batch execute concurrently
// (the executor's core budget still bounds actual CPU parallelism), a lone
// item on the handler's own goroutine, and the response preserves request
// order.
func (s *Server) handleFetchBatch(jobID uint64, req *wire.FetchBatch) *wire.FetchBatchResp {
	s.counters.ObservePlanVersion(req.PlanVersion)
	resp := &wire.FetchBatchResp{
		RequestID: req.RequestID,
		Items:     make([]wire.FetchBatchRespItem, len(req.Items)),
	}
	if len(req.Items) == 1 {
		resp.Items[0] = s.serveItem(jobID, req.Epoch, req.Items[0])
		return resp
	}
	var wg sync.WaitGroup
	for i, item := range req.Items {
		wg.Add(1)
		go func(i int, item wire.FetchBatchItem) {
			defer wg.Done()
			resp.Items[i] = s.serveItem(jobID, req.Epoch, item)
		}(i, item)
	}
	wg.Wait()
	return resp
}

// serveItem runs one directive: the stored object, its sliced progressive
// prefix, or the artifact after the first item.Split ops.
func (s *Server) serveItem(jobID, epoch uint64, item wire.FetchBatchItem) wire.FetchBatchRespItem {
	resp := wire.FetchBatchRespItem{Sample: item.Sample, Split: item.Split}
	raw, err := s.store.Get(item.Sample)
	if err != nil {
		resp.Status = wire.FetchNotFound
		return resp
	}
	split := int(item.Split)
	if split > s.pipe.Len() || (split > 0 && s.exec.Cores() == 0) {
		resp.Status = wire.FetchBadSplit
		return resp
	}
	if split == 0 {
		// Progressive fast path: a reduced-fidelity raw fetch of a stored
		// SJPR container is answered by slicing the stored bytes — no
		// decode, no re-encode, no executor core. A non-progressive object
		// (or a zero drop) falls through to the normal raw path.
		if enc, saved := s.sliceProgressive(raw, item.Fidelity); enc != nil {
			resp.Status = wire.FetchOK
			resp.Artifact = enc
			s.counters.SamplesServed.Add(1)
			s.counters.PrefixServed.Add(1)
			s.counters.PrefixBytesSaved.Add(uint64(saved))
			return resp
		}
	}
	seed := pipeline.Seed{Job: jobID, Epoch: epoch, Sample: uint64(item.Sample)}
	// RunPrefixEncoded encodes into a pooled buffer; the writer goroutine
	// returns it to the arena (wire.Recycle) once the frame is sent.
	encoded, err := s.exec.RunPrefixEncoded(raw, split, seed)
	if err != nil {
		s.logf("storage: prefix sample=%d split=%d: %v", item.Sample, split, err)
		resp.Status = wire.FetchFailed
		return resp
	}
	resp.Status = wire.FetchOK
	resp.Artifact = encoded
	s.counters.SamplesServed.Add(1)
	return resp
}

// sliceProgressive serves the prefix of a stored progressive container that
// withholds drop refinement scans (imaging.FidelityPrefixSize). It returns
// the encoded raw artifact in a pooled buffer — the response's artifact bytes
// are recycled by the writer goroutine, so the stored container must never
// be aliased — plus the refinement bytes withheld. A nil return means the
// fast path does not apply (drop 0, non-progressive object, or nothing to
// withhold) and the caller should serve the full object.
func (s *Server) sliceProgressive(raw []byte, drop uint8) ([]byte, int) {
	n, ok := imaging.FidelityPrefixSize(raw, int(drop))
	if !ok || n == len(raw) {
		return nil, 0
	}
	enc := bufpool.GetBytes(1 + n)
	enc[0] = byte(pipeline.KindRaw)
	copy(enc[1:], raw[:n])
	return enc, len(raw) - n
}
