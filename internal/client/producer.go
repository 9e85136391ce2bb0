package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
	"kafkadirect/internal/tcpnet"
)

// Producer is implemented by all three producer stacks.
type Producer interface {
	// Produce appends records synchronously and returns the base offset.
	Produce(p *sim.Proc, recs ...krecord.Record) (int64, error)
	// ProduceAsync appends records with up to MaxInFlight outstanding
	// requests, for open-loop bandwidth workloads. Errors surface on Drain.
	ProduceAsync(p *sim.Proc, recs ...krecord.Record) error
	// Drain waits for all outstanding async produces.
	Drain(p *sim.Proc) error
	// Close tears the producer down.
	Close()
}

// Errors returned by producers.
var (
	ErrProducerClosed = errors.New("client: producer closed")
	errMixedModes     = errors.New("client: cannot mix Produce and ProduceAsync")
)

// ---------------------------------------------------------------------------
// RPC producer (original Kafka over TCP, or OSU Kafka over two-sided RDMA)
// ---------------------------------------------------------------------------

// RPCProducer sends classical produce requests over a Transport.
type RPCProducer struct {
	e          *Endpoint
	t          Transport
	topic      string
	part       int32
	acks       int8
	producerID int64
	corr       uint32

	inflight int
	window   sim.Cond
	asyncErr error
	receiver bool // async receiver process started
	syncUsed bool
	closed   bool

	// redial re-resolves the partition leader and dials a fresh transport;
	// synchronous produces retry through it after transport failures and
	// leader changes. Nil disables retries (NewRPCProducer over a caller-owned
	// transport).
	redial func(p *sim.Proc) (Transport, error)

	// Reusable encode/decode state for the steady-state produce loop: the
	// batch builder, the request message, the frame scratch (Transport.Send
	// consumes the frame before returning), and the decoded ack. The ack
	// scratch is only touched by whichever of Produce/ackLoop is in use.
	builder *krecord.Builder
	reqMsg  kwire.ProduceReq
	enc     kwire.Scratch
	ackMsg  kwire.ProduceResp
}

// NewRPCProducer builds a producer for one partition over an established
// transport. acks < 0 waits for full replication.
func NewRPCProducer(e *Endpoint, t Transport, topic string, part int32, acks int8, producerID int64) *RPCProducer {
	return &RPCProducer{e: e, t: t, topic: topic, part: part, acks: acks, producerID: producerID}
}

// NewTCPProducer dials the partition leader and returns a TCP producer.
func NewTCPProducer(p *sim.Proc, e *Endpoint, topic string, part int32, acks int8, producerID int64) (*RPCProducer, error) {
	redial := func(p *sim.Proc) (Transport, error) {
		broker, err := e.leader(topic, part)
		if err != nil {
			return nil, err
		}
		return NewTCPTransport(p, e, broker)
	}
	t, err := redial(p)
	if err != nil {
		return nil, err
	}
	pr := NewRPCProducer(e, t, topic, part, acks, producerID)
	pr.redial = redial
	return pr, nil
}

// NewOSUProducer dials the partition leader over two-sided RDMA.
func NewOSUProducer(p *sim.Proc, e *Endpoint, topic string, part int32, acks int8, producerID int64) (*RPCProducer, error) {
	redial := func(p *sim.Proc) (Transport, error) {
		broker, err := e.leader(topic, part)
		if err != nil {
			return nil, err
		}
		return NewOSUTransport(p, e, broker)
	}
	t, err := redial(p)
	if err != nil {
		return nil, err
	}
	pr := NewRPCProducer(e, t, topic, part, acks, producerID)
	pr.redial = redial
	return pr, nil
}

// buildBatch encodes records, charging the producer-side defensive copy
// ("the producer API makes a copy of user data to prevent mutation of it
// during transmission", §5.1).
// The returned slice belongs to the producer's reusable builder and is valid
// until the next buildBatch call — long enough to encode it into the request
// frame.
func (pr *RPCProducer) buildBatch(p *sim.Proc, recs []krecord.Record) ([]byte, error) {
	if pr.builder == nil {
		pr.builder = krecord.NewBuilder(pr.producerID)
	}
	batch, err := pr.builder.Build(recs)
	if err != nil {
		return nil, err
	}
	start := p.Now()
	p.Sleep(pr.e.cfg.ProduceCPU + pr.e.copyTime(len(batch)))
	pr.e.stEncode.ObserveDur(p.Now() - start)
	return batch, nil
}

// encodeProduce builds the produce frame in the producer's scratch buffer.
func (pr *RPCProducer) encodeProduce(batch []byte) []byte {
	pr.corr++
	pr.reqMsg = kwire.ProduceReq{Topic: pr.topic, Partition: pr.part, Acks: pr.acks, Batch: batch}
	return pr.enc.Encode(pr.corr, &pr.reqMsg)
}

// Produce sends one produce request and waits for the acknowledgement. After
// a transport failure or leader change it redials the (re-resolved) leader
// with exponential backoff until RetryTimeout; a retry after a lost
// acknowledgement may duplicate the batch (at-least-once delivery).
func (pr *RPCProducer) Produce(p *sim.Proc, recs ...krecord.Record) (int64, error) {
	if pr.closed {
		return 0, ErrProducerClosed
	}
	if pr.receiver {
		return 0, errMixedModes
	}
	pr.syncUsed = true
	batch, err := pr.buildBatch(p, recs)
	if err != nil {
		return 0, err
	}
	off, err := pr.produceOnce(p, batch)
	if err == nil || pr.redial == nil || !retryableErr(err) {
		return off, err
	}
	r := pr.e.newRetrier(p)
	for {
		if !r.wait(p) {
			return 0, err
		}
		pr.t.Close()
		t, derr := pr.redial(p)
		if derr != nil {
			continue // leaderless or unreachable; keep backing off
		}
		pr.t = t
		off, err = pr.produceOnce(p, batch)
		if err == nil || !retryableErr(err) {
			return off, err
		}
	}
}

// produceOnce runs one request/response exchange for an already-built batch.
func (pr *RPCProducer) produceOnce(p *sim.Proc, batch []byte) (int64, error) {
	if err := pr.t.Send(p, pr.encodeProduce(batch)); err != nil {
		return 0, err
	}
	raw, err := pr.t.Recv(p)
	if err != nil {
		return 0, err
	}
	_, err = kwire.DecodeInto(raw, &pr.ackMsg)
	pr.t.Recycle(raw)
	if err == kwire.ErrKindMismatch {
		return 0, fmt.Errorf("client: unexpected response kind")
	}
	if err != nil {
		return 0, err
	}
	wkStart := p.Now()
	p.Sleep(pr.e.cfg.ProduceWakeup)
	pr.e.stWakeup.ObserveDur(p.Now() - wkStart)
	if pr.ackMsg.Err == kwire.ErrNotLeader {
		return 0, errNotLeader
	}
	if pr.ackMsg.Err != kwire.ErrNone {
		return 0, pr.ackMsg.Err.Err()
	}
	return pr.ackMsg.BaseOffset, nil
}

// ProduceAsync pipelines produce requests up to the in-flight window.
func (pr *RPCProducer) ProduceAsync(p *sim.Proc, recs ...krecord.Record) error {
	if pr.closed {
		return ErrProducerClosed
	}
	if pr.syncUsed {
		return errMixedModes
	}
	if !pr.receiver {
		pr.receiver = true
		p.Env().Go("producer/acks", pr.ackLoop)
	}
	for pr.inflight >= pr.e.cfg.RPCMaxInFlight {
		pr.window.Wait(p)
	}
	if pr.asyncErr != nil {
		return pr.asyncErr
	}
	batch, err := pr.buildBatch(p, recs)
	if err != nil {
		return err
	}
	if err := pr.t.Send(p, pr.encodeProduce(batch)); err != nil {
		return err
	}
	pr.inflight++
	return nil
}

// ackLoop is the client's network thread consuming acknowledgements.
func (pr *RPCProducer) ackLoop(p *sim.Proc) {
	for {
		raw, err := pr.t.Recv(p)
		if err != nil {
			pr.asyncErr = err
			pr.inflight = 0
			pr.window.Broadcast()
			return
		}
		_, err = kwire.DecodeInto(raw, &pr.ackMsg)
		pr.t.Recycle(raw)
		if err == nil && pr.ackMsg.Err != kwire.ErrNone && pr.asyncErr == nil {
			pr.asyncErr = pr.ackMsg.Err.Err()
		}
		if pr.inflight > 0 {
			pr.inflight--
		}
		pr.window.Broadcast()
	}
}

// Drain waits until no produce is outstanding.
func (pr *RPCProducer) Drain(p *sim.Proc) error {
	for pr.inflight > 0 && pr.asyncErr == nil {
		pr.window.Wait(p)
	}
	return pr.asyncErr
}

// Close releases the transport.
func (pr *RPCProducer) Close() {
	if !pr.closed {
		pr.closed = true
		pr.t.Close()
	}
}

// ---------------------------------------------------------------------------
// KafkaDirect RDMA producer (§4.2.2)
// ---------------------------------------------------------------------------

// fileGrant is the client's view of an RDMA-writable head file.
type fileGrant struct {
	id         uint16
	addr       uint64
	rkey       uint32
	length     int64
	writePos   int64 // exclusive mode: next write position, tracked locally
	atomicAddr uint64
	atomicRKey uint32
}

// NotifyMode selects how the broker learns about a written batch (§4.2.2
// "The choice of notification method").
type NotifyMode uint8

// Notification modes.
const (
	// NotifyWriteImm piggybacks everything in the 32-bit immediate value —
	// one work request per produce, the paper's default.
	NotifyWriteImm NotifyMode = iota
	// NotifyWriteSend posts a plain Write followed by a Send carrying a
	// metadata frame — two work requests, but room for richer metadata.
	NotifyWriteSend
)

// RDMAProducer writes record batches directly into broker TP files.
type RDMAProducer struct {
	e      *Endpoint
	broker *core.Broker
	topic  string
	part   int32
	mode   kwire.AccessMode

	// Notify selects the notification method; MetaSize pads the Write+Send
	// metadata frame (the paper evaluates 4-512 B sends).
	Notify   NotifyMode
	MetaSize int

	qp      *rdma.QP
	session uint32
	ctl     *tcpnet.Conn
	corr    uint32

	producerID int64
	grant      fileGrant
	ackBufs    [][]byte

	inflight int
	window   sim.Cond
	asyncErr error
	receiver bool
	syncUsed bool
	closed   bool

	// faaBuf receives old atomic values in shared mode.
	faaBuf []byte
	// ackMsg is the reusable decoded acknowledgement (recvAck's result is
	// consumed before the next recvAck call).
	ackMsg kwire.ProduceResp
	// builder encodes synchronous batches: Produce waits for the broker's
	// acknowledgement of its WRITE (or gives up on a failed QP), so the
	// next Produce may overwrite the batch. ProduceAsync encodes each batch
	// afresh, because an in-flight WRITE reads its source bytes when it
	// lands.
	builder *krecord.Builder
}

// NewRDMAProducer establishes QPs and requests RDMA produce access in the
// given mode.
func NewRDMAProducer(p *sim.Proc, e *Endpoint, topic string, part int32, mode kwire.AccessMode, producerID int64) (*RDMAProducer, error) {
	broker, err := e.leader(topic, part)
	if err != nil {
		return nil, err
	}
	qp, session, err := broker.ConnectProducer(e.dev)
	if err != nil {
		return nil, err
	}
	ctl, err := e.host.Dial(p, broker.Host(), core.TCPPort)
	if err != nil {
		return nil, err
	}
	pr := &RDMAProducer{
		e: e, broker: broker, topic: topic, part: part, mode: mode,
		qp: qp, session: session, ctl: ctl, producerID: producerID,
		faaBuf: make([]byte, 8),
	}
	depth := 2 * e.cfg.MaxInFlight
	pr.ackBufs = make([][]byte, depth)
	for i := range pr.ackBufs {
		pr.ackBufs[i] = make([]byte, 64)
		if err := qp.PostRecv(rdma.RQE{WRID: uint64(i), Buf: pr.ackBufs[i]}); err != nil {
			return nil, err
		}
	}
	if err := pr.requestAccess(p); err != nil {
		return nil, err
	}
	return pr, nil
}

// Grant exposes the current file grant (tests, diagnostics).
func (pr *RDMAProducer) Grant() (fileID uint16, writePos, length int64) {
	return pr.grant.id, pr.grant.writePos, pr.grant.length
}

// reconnect rebuilds the QP bundle after a fatal QP error — InfiniBand
// access errors move the QP to the error state, so "re-enabling the RDMA
// datapath by requesting RDMA access again" (§4.2.2) implies a fresh
// connection. The leader is re-resolved first: after a failover the grants
// must come from the new leader, and the control connection follows it.
func (pr *RDMAProducer) reconnect(p *sim.Proc) error {
	broker, err := pr.e.leader(pr.topic, pr.part)
	if err != nil {
		return err
	}
	qp, session, err := broker.ConnectProducer(pr.e.dev)
	if err != nil {
		return err
	}
	ctl, err := pr.e.host.Dial(p, broker.Host(), core.TCPPort)
	if err != nil {
		qp.Disconnect() // let the broker reap the half-built session
		return err
	}
	pr.ctl.Close()
	pr.broker, pr.qp, pr.session, pr.ctl = broker, qp, session, ctl
	for i := range pr.ackBufs {
		if err := qp.PostRecv(rdma.RQE{WRID: uint64(i), Buf: pr.ackBufs[i]}); err != nil {
			return err
		}
	}
	// Connection management handshake latency.
	p.Sleep(100 * time.Microsecond)
	return nil
}

// requestAccess performs the TCP control exchange of §4.2.2, (re)acquiring
// write access to the current head file. A dead QP or control connection is
// re-established first (against the re-resolved leader).
func (pr *RDMAProducer) requestAccess(p *sim.Proc) error {
	if pr.qp.State() != rdma.QPReady || pr.ctl.Closed() {
		if err := pr.reconnect(p); err != nil {
			return err
		}
	}
	pr.corr++
	req := &kwire.ProduceAccessReq{Topic: pr.topic, Partition: pr.part, Mode: pr.mode, Session: pr.session}
	if err := pr.ctl.Send(p, kwire.Encode(pr.corr, req)); err != nil {
		return err
	}
	raw, err := pr.ctl.Recv(p)
	if err != nil {
		return err
	}
	_, msg, err := kwire.Decode(raw)
	if err != nil {
		return err
	}
	resp, ok := msg.(*kwire.ProduceAccessResp)
	if !ok {
		return fmt.Errorf("client: unexpected access response %T", msg)
	}
	if resp.Err == kwire.ErrNotLeader {
		return errNotLeader
	}
	if resp.Err != kwire.ErrNone {
		return resp.Err.Err()
	}
	pr.grant = fileGrant{
		id:         resp.FileID,
		addr:       resp.Addr,
		rkey:       resp.RKey,
		length:     resp.FileLen,
		writePos:   resp.WritePos,
		atomicAddr: resp.AtomicAddr,
		atomicRKey: resp.AtomicRKey,
	}
	return nil
}

// reserve obtains the write position and order for a batch of the given
// size: locally in exclusive mode, via RDMA FAA in shared mode (Fig. 5).
// It re-requests access when the current file has no room ("to timely
// request allocation of a new head file", §4.2.2).
func (pr *RDMAProducer) reserve(p *sim.Proc, size int) (order uint16, pos int64, err error) {
	for attempt := 0; attempt < 8; attempt++ {
		if pr.mode == kwire.AccessExclusive {
			if pr.grant.writePos+int64(size) > pr.grant.length {
				if err := pr.requestAccess(p); err != nil {
					return 0, 0, err
				}
				continue
			}
			pos = pr.grant.writePos
			pr.grant.writePos += int64(size)
			return 0, pos, nil
		}
		// Shared mode: one Fetch-and-Add reserves both the order and the
		// region (§4.2.2).
		err := pr.qp.PostSend(rdma.SendWR{
			Op:         rdma.OpFetchAdd,
			Local:      pr.faaBuf,
			RemoteAddr: pr.grant.atomicAddr,
			RKey:       pr.grant.atomicRKey,
			Add:        core.SharedDelta(size),
		})
		if err != nil {
			return 0, 0, err
		}
		cqe := pr.qp.SendCQ().Poll(p)
		pr.e.stCQEWait.ObserveDur(p.Now() - cqe.At)
		if cqe.Status != rdma.StatusOK {
			// The word was deregistered: the grant was revoked or rolled.
			if err := pr.requestAccess(p); err != nil {
				return 0, 0, err
			}
			continue
		}
		order, pos = core.UnpackShared(binary.LittleEndian.Uint64(pr.faaBuf))
		if pos+int64(size) > pr.grant.length {
			// Overflow detected through the 48-bit offset field: ask for a
			// new file; the broker seals the exhausted one.
			if err := pr.requestAccess(p); err != nil {
				return 0, 0, err
			}
			continue
		}
		return order, pos, nil
	}
	return 0, 0, fmt.Errorf("client: could not reserve %d bytes after retries", size)
}

// post writes the batch into the reserved region and notifies the broker,
// using the configured notification method.
func (pr *RDMAProducer) post(order uint16, pos int64, batch []byte) error {
	if pr.Notify == NotifyWriteSend {
		// Write the data, then send the metadata: in-order delivery
		// guarantees the broker never observes the metadata before the
		// data (§4.2.2).
		err := pr.qp.PostSend(rdma.SendWR{
			Op:         rdma.OpWrite,
			Local:      batch,
			RemoteAddr: pr.grant.addr + uint64(pos),
			RKey:       pr.grant.rkey,
			Unsignaled: true,
		})
		if err != nil {
			return err
		}
		meta := core.EncodeWriteSendMeta(order, pr.grant.id, len(batch), pr.MetaSize)
		return pr.qp.PostSend(rdma.SendWR{Op: rdma.OpSend, Local: meta, Unsignaled: true})
	}
	return pr.qp.PostSend(rdma.SendWR{
		Op:         rdma.OpWriteImm,
		Local:      batch,
		RemoteAddr: pr.grant.addr + uint64(pos),
		RKey:       pr.grant.rkey,
		Imm:        core.EncodeImm(order, pr.grant.id),
		Unsignaled: true,
	})
}

// recvAck consumes one broker acknowledgement (Fig. 3).
func (pr *RDMAProducer) recvAck(p *sim.Proc) (*kwire.ProduceResp, error) {
	cqe := pr.qp.RecvCQ().Poll(p)
	pr.e.stCQEWait.ObserveDur(p.Now() - cqe.At)
	if cqe.Status != rdma.StatusOK {
		return nil, fmt.Errorf("%w: producer ack %v", errQPFailed, cqe.Status)
	}
	buf := pr.ackBufs[cqe.WRID]
	// Decode before reposting the receive: decoding copies every byte field,
	// so the buffer can go straight back to the RQ.
	_, err := kwire.DecodeInto(buf[:cqe.ByteLen], &pr.ackMsg)
	if rerr := pr.qp.PostRecv(rdma.RQE{WRID: cqe.WRID, Buf: buf}); rerr != nil {
		// A failed repost means the QP died under us. Report it rather than
		// silently losing an RQ slot: the produce retry path reconnects and
		// re-sends the batch (at-least-once), whereas a shrinking RQ ends
		// with the producer parked forever on an empty completion queue.
		return nil, fmt.Errorf("%w: repost ack recv: %v", errQPFailed, rerr)
	}
	if err == kwire.ErrKindMismatch {
		return nil, fmt.Errorf("client: unexpected ack kind")
	}
	if err != nil {
		return nil, err
	}
	return &pr.ackMsg, nil
}

// Produce writes one batch and waits for the broker's acknowledgement. After
// a QP failure, control-connection failure, or leader change it re-resolves
// the leader, re-requests access, and retries with exponential backoff until
// RetryTimeout; a retry after a lost acknowledgement may duplicate the batch
// (at-least-once delivery).
func (pr *RDMAProducer) Produce(p *sim.Proc, recs ...krecord.Record) (int64, error) {
	if pr.closed {
		return 0, ErrProducerClosed
	}
	if pr.receiver {
		return 0, errMixedModes
	}
	pr.syncUsed = true
	if pr.builder == nil {
		pr.builder = krecord.NewBuilder(pr.producerID)
	}
	batch, err := pr.builder.Build(recs)
	if err != nil {
		return 0, err
	}
	// The producer still copies user data defensively (§5.1) — the copy the
	// paper identifies as part of the irreducible 88 µs overhead.
	encStart := p.Now()
	p.Sleep(pr.e.cfg.ProduceCPU + pr.e.copyTime(len(batch)))
	pr.e.stEncode.ObserveDur(p.Now() - encStart)
	off, err := pr.produceOnce(p, batch)
	if err == nil || !retryableErr(err) {
		return off, err
	}
	r := pr.e.newRetrier(p)
	for {
		if !r.wait(p) {
			return 0, err
		}
		// Re-establish the datapath (requestAccess reconnects a dead QP or
		// control connection against the re-resolved leader); failures here
		// just burn one backoff step.
		if aerr := pr.requestAccess(p); aerr != nil {
			continue
		}
		off, err = pr.produceOnce(p, batch)
		if err == nil || !retryableErr(err) {
			return off, err
		}
	}
}

// produceOnce runs one reserve/write/ack round for an already-encoded batch.
func (pr *RDMAProducer) produceOnce(p *sim.Proc, batch []byte) (int64, error) {
	order, pos, err := pr.reserve(p, len(batch))
	if err != nil {
		return 0, err
	}
	if err := pr.post(order, pos, batch); err != nil {
		return 0, err
	}
	resp, err := pr.recvAck(p)
	if err != nil {
		return 0, err
	}
	wkStart := p.Now()
	p.Sleep(pr.e.cfg.ProduceWakeup)
	pr.e.stWakeup.ObserveDur(p.Now() - wkStart)
	if resp.Err == kwire.ErrNotLeader {
		return 0, errNotLeader
	}
	if resp.Err != kwire.ErrNone {
		return 0, resp.Err.Err()
	}
	return resp.BaseOffset, nil
}

// ProduceAsync pipelines writes with a bounded in-flight window.
func (pr *RDMAProducer) ProduceAsync(p *sim.Proc, recs ...krecord.Record) error {
	if pr.closed {
		return ErrProducerClosed
	}
	if pr.syncUsed {
		return errMixedModes
	}
	if !pr.receiver {
		pr.receiver = true
		p.Env().Go("rdma-producer/acks", pr.ackLoop)
	}
	for pr.inflight >= pr.e.cfg.MaxInFlight {
		pr.window.Wait(p)
	}
	if pr.asyncErr != nil {
		return pr.asyncErr
	}
	batch, err := krecord.Encode(pr.producerID, recs...)
	if err != nil {
		return err
	}
	p.Sleep(pr.e.cfg.ProduceCPU + pr.e.copyTime(len(batch)))
	order, pos, err := pr.reserve(p, len(batch))
	if err != nil {
		return err
	}
	if err := pr.post(order, pos, batch); err != nil {
		return err
	}
	pr.inflight++
	return nil
}

func (pr *RDMAProducer) ackLoop(p *sim.Proc) {
	for {
		resp, err := pr.recvAck(p)
		if err != nil {
			pr.asyncErr = err
			pr.inflight = 0
			pr.window.Broadcast()
			return
		}
		if resp.Err != kwire.ErrNone && pr.asyncErr == nil {
			pr.asyncErr = resp.Err.Err()
		}
		if pr.inflight > 0 {
			pr.inflight--
		}
		pr.window.Broadcast()
	}
}

// ReserveOnly performs a shared-mode reservation without ever writing the
// region — fault injection for the hole-prevention machinery (§4.2.2): the
// produce that should follow never arrives, so the broker's order timeout
// must fire.
func (pr *RDMAProducer) ReserveOnly(p *sim.Proc, size int) error {
	if pr.mode != kwire.AccessShared {
		return fmt.Errorf("client: ReserveOnly requires shared mode")
	}
	_, _, err := pr.reserve(p, size)
	return err
}

// WriteGarbage reserves a region and fills it with bytes that cannot pass
// the broker's CRC validation — fault injection for corrupt producers.
func (pr *RDMAProducer) WriteGarbage(p *sim.Proc, size int) error {
	order, pos, err := pr.reserve(p, size)
	if err != nil {
		return err
	}
	junk := bytes.Repeat([]byte{0xa5}, size)
	return pr.post(order, pos, junk)
}

// Drain waits for all outstanding async produces.
func (pr *RDMAProducer) Drain(p *sim.Proc) error {
	for pr.inflight > 0 && pr.asyncErr == nil {
		pr.window.Wait(p)
	}
	return pr.asyncErr
}

// Close disconnects the QP (the broker revokes grants via the QP event).
func (pr *RDMAProducer) Close() {
	if !pr.closed {
		pr.closed = true
		pr.qp.Disconnect()
		pr.ctl.Close()
	}
}
