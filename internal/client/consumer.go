package client

import (
	"fmt"
	"time"

	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
	"kafkadirect/internal/tcpnet"
)

// Consumer is implemented by both consumer stacks.
type Consumer interface {
	// Poll returns the next available records (possibly none) starting at
	// the consumer's position, advancing it past everything returned. The
	// records, their Key and Value included, alias consumer-owned memory:
	// they are valid until the next Poll or Close of this consumer, so a
	// caller that keeps them longer must copy them.
	Poll(p *sim.Proc) ([]krecord.Record, error)
	// Position returns the next offset the consumer will return.
	Position() int64
	// Close tears the consumer down.
	Close()
}

// ---------------------------------------------------------------------------
// RPC consumer (original Kafka over TCP, or OSU Kafka)
// ---------------------------------------------------------------------------

// RPCConsumer fetches records with classical fetch requests.
type RPCConsumer struct {
	e      *Endpoint
	t      Transport
	topic  string
	part   int32
	offset int64
	corr   uint32
	group  string
	// LongPoll controls whether fetches park at the broker when no data is
	// available; benchmarks measuring empty-fetch cost disable it.
	LongPoll bool
	// MaxBytesOverride, when positive, replaces the configured fetch size —
	// e.g. 1 forces the broker to return a single batch per fetch, the
	// anti-batching setting of the paper's Fig. 20.
	MaxBytesOverride int
	closed           bool

	// redial re-resolves the partition leader and dials a fresh transport;
	// Poll retries through it after transport failures and leader changes
	// (fetches are idempotent, so retrying is always safe). Nil disables
	// retries.
	redial func(p *sim.Proc) (Transport, error)

	// Reusable encode/decode state for the poll loop. The records Poll
	// returns alias respMsg.Data and live in out, so both are overwritten
	// by the next Poll.
	enc     kwire.Scratch
	reqMsg  kwire.FetchReq
	respMsg kwire.FetchResp
	out     []krecord.Record
}

// NewTCPConsumer dials the partition leader over TCP.
func NewTCPConsumer(p *sim.Proc, e *Endpoint, topic string, part int32, offset int64, group string) (*RPCConsumer, error) {
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
	return &RPCConsumer{e: e, t: t, topic: topic, part: part, offset: offset, group: group, LongPoll: true, redial: redial}, nil
}

// NewOSUConsumer dials the partition leader over two-sided RDMA.
func NewOSUConsumer(p *sim.Proc, e *Endpoint, topic string, part int32, offset int64, group string) (*RPCConsumer, error) {
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
	return &RPCConsumer{e: e, t: t, topic: topic, part: part, offset: offset, group: group, LongPoll: true, redial: redial}, nil
}

// Poll issues one fetch request, redialing the (re-resolved) leader with
// exponential backoff after a transport failure or leader change. Fetches
// are idempotent — the consumer's offset only advances on success — so
// retries never skip or duplicate records.
func (c *RPCConsumer) Poll(p *sim.Proc) ([]krecord.Record, error) {
	recs, err := c.pollOnce(p)
	if err == nil || c.redial == nil || !retryableErr(err) {
		return recs, err
	}
	r := c.e.newRetrier(p)
	for {
		if !r.wait(p) {
			return nil, err
		}
		c.t.Close()
		t, derr := c.redial(p)
		if derr != nil {
			continue // leaderless or unreachable; keep backing off
		}
		c.t = t
		recs, err = c.pollOnce(p)
		if err == nil || !retryableErr(err) {
			return recs, err
		}
	}
}

// pollOnce issues one fetch request.
func (c *RPCConsumer) pollOnce(p *sim.Proc) ([]krecord.Record, error) {
	if c.closed {
		return nil, ErrProducerClosed
	}
	c.corr++
	var wait int64
	if c.LongPoll {
		wait = c.e.cfg.FetchMaxWait.Microseconds()
	}
	maxBytes := c.e.cfg.FetchMaxBytes
	if c.MaxBytesOverride > 0 {
		maxBytes = c.MaxBytesOverride
	}
	c.reqMsg = kwire.FetchReq{
		Topic:         c.topic,
		Partition:     c.part,
		Offset:        c.offset,
		MaxBytes:      int32(maxBytes),
		MaxWaitMicros: wait,
		ReplicaID:     -1,
	}
	if err := c.t.Send(p, c.enc.Encode(c.corr, &c.reqMsg)); err != nil {
		return nil, err
	}
	raw, err := c.t.Recv(p)
	if err != nil {
		return nil, err
	}
	_, err = kwire.DecodeInto(raw, &c.respMsg)
	c.t.Recycle(raw)
	if err == kwire.ErrKindMismatch {
		return nil, fmt.Errorf("client: unexpected fetch response kind")
	}
	if err != nil {
		return nil, err
	}
	resp := &c.respMsg
	if resp.Err == kwire.ErrNotLeader {
		return nil, errNotLeader
	}
	if resp.Err != kwire.ErrNone {
		return nil, resp.Err.Err()
	}
	p.Sleep(c.e.cfg.ConsumeCPU)
	if len(resp.Data) == 0 {
		return nil, nil
	}
	p.Sleep(c.e.crcTime(len(resp.Data)))
	out, next, err := decodeBatches(c.out[:0], resp.Data, c.offset)
	if err != nil {
		return nil, err
	}
	c.out, c.offset = out, next
	return out, nil
}

// decodeBatches validates every complete batch at the head of buf and
// appends the records at or past offset from to out; a partial tail is
// left alone (§4.4.2). It returns the grown slice and the offset one past
// the last batch. On error it returns out at its original length and from
// unchanged, so a consumer that commits the returned offset never skips
// records it did not deliver. The records alias buf.
//
//kdlint:hotpath
func decodeBatches(out []krecord.Record, buf []byte, from int64) ([]krecord.Record, int64, error) {
	start, next := len(out), from
	for {
		size, ok := krecord.PeekSize(buf)
		if !ok || size > len(buf) {
			return out, next, nil
		}
		b, n, err := krecord.Parse(buf)
		if err == nil {
			err = b.Validate()
		}
		if err != nil {
			return out[:start], from, err
		}
		// A fetch from the middle of a batch returns the whole batch; drop
		// the records before the position, which never moves backwards.
		first := len(out)
		if out, err = b.AppendRecords(out); err != nil {
			return out[:start], from, err
		}
		kept := first
		for _, r := range out[first:] {
			if r.Offset >= next {
				out[kept] = r
				kept++
			}
		}
		out = out[:kept]
		next = max(next, b.NextOffset())
		buf = buf[n:]
	}
}

// Position returns the next offset to be fetched.
func (c *RPCConsumer) Position() int64 { return c.offset }

// CommitOffset records the consumer's progress at the broker (§5.4).
func (c *RPCConsumer) CommitOffset(p *sim.Proc) error {
	c.corr++
	req := kwire.OffsetCommitReq{Group: c.group, Topic: c.topic, Partition: c.part, Offset: c.offset}
	if err := c.t.Send(p, c.enc.Encode(c.corr, &req)); err != nil {
		return err
	}
	raw, err := c.t.Recv(p)
	if err != nil {
		return err
	}
	var resp kwire.OffsetCommitResp
	_, err = kwire.DecodeInto(raw, &resp)
	c.t.Recycle(raw)
	if err == kwire.ErrKindMismatch {
		return fmt.Errorf("client: unexpected commit response kind")
	}
	if err != nil {
		return err
	}
	return resp.Err.Err()
}

// Close releases the transport.
func (c *RPCConsumer) Close() {
	if !c.closed {
		c.closed = true
		c.t.Close()
	}
}

// ---------------------------------------------------------------------------
// KafkaDirect RDMA consumer (§4.4.2)
// ---------------------------------------------------------------------------

// consumerFile is the client's view of an RDMA-readable TP file.
type consumerFile struct {
	id           int32
	addr         uint64
	rkey         uint32
	lastReadable int64
	mutable      bool
	slotAddr     uint64
	slotRKey     uint32
	slotIndex    int32
}

// readCursor is one partition's read state in an RDMA consumer: the file
// being read, the next file position to read, the next record offset to
// deliver, and the bytes read past the last complete batch.
type readCursor struct {
	file    consumerFile
	readPos int64
	offset  int64
	partial []byte
}

// open points the cursor at the file a ConsumeAccessResp granted.
func (cur *readCursor) open(resp *kwire.ConsumeAccessResp) {
	cur.file = consumerFile{
		id:           resp.FileID,
		addr:         resp.Addr,
		rkey:         resp.RKey,
		lastReadable: resp.LastReadable,
		mutable:      resp.Mutable,
		slotAddr:     resp.SlotRegionAddr,
		slotRKey:     resp.SlotRegionRKey,
		slotIndex:    resp.SlotIndex,
	}
	cur.readPos = resp.StartPos
	cur.partial = cur.partial[:0]
}

// delivery is the consumer-owned memory an RDMA consumer's records alias:
// the on-heap copy of completed batches that Kafka's consumer API requires
// (§5.3) and the decoded records. Both grow once and are reused, so the
// records are valid until the consumer's next Poll.
type delivery struct {
	stable []byte
	out    []krecord.Record
}

// take decodes the complete batches at the head of cur.partial. On success
// it advances cur.offset past them and drops their bytes from cur.partial;
// on error it changes neither, so the next Poll meets the same error
// instead of skipping records.
func (d *delivery) take(p *sim.Proc, e *Endpoint, cur *readCursor) ([]krecord.Record, error) {
	// Find the boundary of complete batches; a partial tail stays buffered
	// until more bytes arrive (§4.4.2).
	consumed := 0
	for {
		size, ok := krecord.PeekSize(cur.partial[consumed:])
		if !ok || consumed+size > len(cur.partial) {
			break
		}
		consumed += size
	}
	if consumed == 0 {
		return nil, nil
	}
	// Copy completed batches into the delivery buffer — the copy the paper
	// attributes to Kafka's consumer API requiring on-heap buffers (§5.3) —
	// then validate integrity and decode. Records alias the delivery copy,
	// never the partial buffer, which the next read appends to.
	d.stable = append(d.stable[:0], cur.partial[:consumed]...)
	p.Sleep(e.copyTime(consumed) + e.crcTime(consumed))
	out, next, err := decodeBatches(d.out[:0], d.stable, cur.offset)
	if err != nil {
		return nil, err
	}
	d.out, cur.offset = out, next
	cur.partial = append(cur.partial[:0], cur.partial[consumed:]...)
	return out, nil
}

// RDMAConsumer reads records with one-sided RDMA Reads: data from the TP
// file, availability from the metadata slot — zero broker CPU (§4.4.2).
type RDMAConsumer struct {
	e      *Endpoint
	broker *core.Broker
	topic  string
	part   int32

	qp      *rdma.QP
	session uint32
	ctl     *tcpnet.Conn
	corr    uint32

	// Pipeline is the number of concurrently outstanding data reads (>=1).
	// "An RDMA consumer can have multiple outstanding read requests" (§7);
	// deep pipelines trade a little latency for bandwidth.
	Pipeline int

	readCursor
	delivery delivery // what Poll returns; reused
	scratch  []byte
	slotBuf  []byte

	// Stats for the measurement harness.
	StatDataReads int
	StatMetaReads int
	closed        bool
}

// NewRDMAConsumer establishes the QP and requests read access starting at
// the given offset.
func NewRDMAConsumer(p *sim.Proc, e *Endpoint, topic string, part int32, offset int64) (*RDMAConsumer, error) {
	broker, err := e.leader(topic, part)
	if err != nil {
		return nil, err
	}
	qp, session, err := broker.ConnectConsumer(e.dev)
	if err != nil {
		return nil, err
	}
	ctl, err := e.host.Dial(p, broker.Host(), core.TCPPort)
	if err != nil {
		return nil, err
	}
	c := &RDMAConsumer{
		e: e, broker: broker, topic: topic, part: part,
		qp: qp, session: session, ctl: ctl, readCursor: readCursor{offset: offset},
		scratch: make([]byte, e.cfg.FetchSize),
		slotBuf: make([]byte, core.SlotSize),
	}
	if err := c.requestAccess(p); err != nil {
		return nil, err
	}
	return c, nil
}

// requestAccess performs the TCP control exchange of §4.4.2 for the file
// containing the consumer's current offset.
func (c *RDMAConsumer) requestAccess(p *sim.Proc) error {
	c.corr++
	req := &kwire.ConsumeAccessReq{Topic: c.topic, Partition: c.part, Offset: c.offset, Session: c.session}
	if err := c.ctl.Send(p, kwire.Encode(c.corr, req)); err != nil {
		return err
	}
	raw, err := c.ctl.Recv(p)
	if err != nil {
		return err
	}
	_, msg, err := kwire.Decode(raw)
	if err != nil {
		return err
	}
	resp, ok := msg.(*kwire.ConsumeAccessResp)
	if !ok {
		return fmt.Errorf("client: unexpected access response %T", msg)
	}
	if resp.Err == kwire.ErrNotLeader {
		return errNotLeader
	}
	if resp.Err != kwire.ErrNone {
		return resp.Err.Err()
	}
	c.readCursor.open(resp)
	return nil
}

// releaseFile tells the broker a fully-read file can be deregistered.
func (c *RDMAConsumer) releaseFile(p *sim.Proc, id int32) error {
	c.corr++
	req := &kwire.ReleaseFileReq{Topic: c.topic, Partition: c.part, FileID: id, Session: c.session}
	if err := c.ctl.Send(p, kwire.Encode(c.corr, req)); err != nil {
		return err
	}
	raw, err := c.ctl.Recv(p)
	if err != nil {
		return err
	}
	_, msg, err := kwire.Decode(raw)
	if err != nil {
		return err
	}
	if resp, ok := msg.(*kwire.ReleaseFileResp); ok {
		return resp.Err.Err()
	}
	return fmt.Errorf("client: unexpected release response %T", msg)
}

// rdmaRead issues one synchronous one-sided read.
func (c *RDMAConsumer) rdmaRead(p *sim.Proc, dst []byte, addr uint64, rkey uint32) error {
	err := c.qp.PostSend(rdma.SendWR{Op: rdma.OpRead, Local: dst, RemoteAddr: addr, RKey: rkey})
	if err != nil {
		return err
	}
	cqe := c.qp.SendCQ().Poll(p)
	if cqe.Status != rdma.StatusOK {
		return fmt.Errorf("%w: read %v", errQPFailed, cqe.Status)
	}
	return nil
}

// refreshMetadata reads the consumer's metadata slot with a single RDMA
// Read (§4.4.2) — the 2.5 µs operation that replaces a 200 µs empty fetch.
func (c *RDMAConsumer) refreshMetadata(p *sim.Proc) error {
	addr := c.file.slotAddr + uint64(c.file.slotIndex)*core.SlotSize
	if err := c.rdmaRead(p, c.slotBuf, addr, c.file.slotRKey); err != nil {
		return err
	}
	c.StatMetaReads++
	c.file.lastReadable, c.file.mutable = core.ReadSlot(c.slotBuf)
	return nil
}

// recover re-establishes the consume datapath after a fault: re-resolve the
// (possibly new) leader, rebuild the QP and control connection, and request
// read access again at the current offset. The consumer only ever reads
// committed bytes, so the offset is always present on the new leader.
func (c *RDMAConsumer) recover(p *sim.Proc) error {
	broker, err := c.e.leader(c.topic, c.part)
	if err != nil {
		return err
	}
	qp, session, err := broker.ConnectConsumer(c.e.dev)
	if err != nil {
		return err
	}
	ctl, err := c.e.host.Dial(p, broker.Host(), core.TCPPort)
	if err != nil {
		qp.Disconnect() // let the broker reap the half-built session
		return err
	}
	c.ctl.Close()
	c.broker, c.qp, c.session, c.ctl = broker, qp, session, ctl
	// Connection management handshake latency.
	p.Sleep(100 * time.Microsecond)
	return c.requestAccess(p)
}

// Poll performs one consume round, recovering through a reconnect (with
// exponential backoff, up to RetryTimeout) after a QP failure,
// control-connection failure, or leader change. Reads are idempotent — the
// delivery offset only advances when complete batches are returned — so
// retries never skip or duplicate records.
func (c *RDMAConsumer) Poll(p *sim.Proc) ([]krecord.Record, error) {
	recs, err := c.pollOnce(p)
	if err == nil || !retryableErr(err) {
		return recs, err
	}
	r := c.e.newRetrier(p)
	for {
		if !r.wait(p) {
			return nil, err
		}
		if rerr := c.recover(p); rerr != nil {
			continue // leaderless or unreachable; keep backing off
		}
		recs, err = c.pollOnce(p)
		if err == nil || !retryableErr(err) {
			return recs, err
		}
	}
}

// pollOnce runs one consume round: read data if the file has unread bytes,
// otherwise refresh metadata (and hop to the next file when the current one
// is sealed and fully consumed). It returns any records completed this
// round; an empty result means "nothing new yet".
func (c *RDMAConsumer) pollOnce(p *sim.Proc) ([]krecord.Record, error) {
	if c.closed {
		return nil, ErrProducerClosed
	}
	if c.readPos >= c.file.lastReadable {
		if !c.file.mutable {
			// Sealed and fully read: hand the file back so the broker can
			// deregister it ("an RDMA consumer also notifies the broker
			// about the files that can be unregistered from RDMA access to
			// reduce memory usage", §4.4.2), then move to the next file.
			if err := c.releaseFile(p, c.file.id); err != nil {
				return nil, err
			}
			if err := c.requestAccess(p); err != nil {
				return nil, err
			}
			return nil, nil
		}
		if err := c.refreshMetadata(p); err != nil {
			return nil, err
		}
		if c.readPos >= c.file.lastReadable {
			if !c.file.mutable && c.readPos >= c.file.lastReadable {
				// The file sealed under us; next Poll hops files.
				return nil, nil
			}
			return nil, nil // no new records
		}
	}

	// Issue up to Pipeline outstanding reads over consecutive chunks; the
	// RNIC overlaps them, so bandwidth is no longer one-RTT-per-chunk.
	depth := max(c.Pipeline, 1)
	fetch := int64(c.e.cfg.FetchSize)
	span := min(c.file.lastReadable-c.readPos, int64(depth)*fetch)
	if int64(len(c.scratch)) < span {
		c.scratch = make([]byte, span)
	}
	reads := 0
	for off := int64(0); off < span; off += fetch {
		err := c.qp.PostSend(rdma.SendWR{
			Op: rdma.OpRead, Local: c.scratch[off:min(off+fetch, span)],
			RemoteAddr: c.file.addr + uint64(c.readPos+off), RKey: c.file.rkey,
		})
		if err != nil {
			return nil, err
		}
		reads++
	}
	for ; reads > 0; reads-- {
		cqe := c.qp.SendCQ().Poll(p)
		if cqe.Status != rdma.StatusOK {
			return nil, fmt.Errorf("%w: read %v", errQPFailed, cqe.Status)
		}
		c.StatDataReads++
	}
	c.readPos += span
	p.Sleep(c.e.cfg.ConsumeCPU)
	c.partial = append(c.partial, c.scratch[:span]...)
	return c.delivery.take(p, c.e, &c.readCursor)
}

// Position returns the next offset to be delivered.
func (c *RDMAConsumer) Position() int64 { return c.offset }

// Close disconnects the QP; the broker tears the session down.
func (c *RDMAConsumer) Close() {
	if !c.closed {
		c.closed = true
		c.qp.Disconnect()
		c.ctl.Close()
	}
}
