package client

import (
	"fmt"

	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
	"kafkadirect/internal/tcpnet"
)

// MultiRDMAConsumer subscribes to several topic partitions on ONE broker and
// refreshes the availability metadata for all of them with a single RDMA
// Read of its contiguous slot region — the design of Figure 9: "as the
// metadata region is contiguous, a consumer only needs a single RDMA Read to
// update the metadata for all files from which it is actively reading"
// (§4.4.2). Data reads then proceed per partition like the single-TP
// consumer.
type MultiRDMAConsumer struct {
	e      *Endpoint
	broker *core.Broker

	qp      *rdma.QP
	session uint32
	ctl     *tcpnet.Conn
	corr    uint32

	subs []*subscription
	// rr rotates the data-read starting point across subscriptions so one
	// busy partition cannot starve the others.
	rr int

	slotBuf     []byte
	scratch     []byte
	releaseResp kwire.ReleaseFileResp
	// delivery and tagged hold what Poll returns; both are reused, so the
	// records are valid until the next Poll.
	delivery delivery
	tagged   []TopicRecord

	// StatMetaReads counts slot-region reads: ONE per refresh, however many
	// partitions are subscribed. StatDataReads counts data reads.
	StatMetaReads int
	StatDataReads int
	closed        bool
}

// subscription is the per-partition cursor.
type subscription struct {
	topic string
	part  int32
	readCursor
}

// TopicRecord is a record tagged with its origin partition.
type TopicRecord struct {
	Topic     string
	Partition int32
	krecord.Record
}

// NewMultiRDMAConsumer opens a session against the broker leading the given
// topic partitions (they must share a leader; the slot region is per broker).
func NewMultiRDMAConsumer(p *sim.Proc, e *Endpoint, broker *core.Broker) (*MultiRDMAConsumer, error) {
	qp, session, err := broker.ConnectConsumer(e.dev)
	if err != nil {
		return nil, err
	}
	ctl, err := e.host.Dial(p, broker.Host(), core.TCPPort)
	if err != nil {
		return nil, err
	}
	return &MultiRDMAConsumer{
		e: e, broker: broker, qp: qp, session: session, ctl: ctl,
		slotBuf: make([]byte, e.cfg.FetchSize),
		scratch: make([]byte, e.cfg.FetchSize),
	}, nil
}

// Subscribe adds a partition starting at offset. The partition must be led
// by this consumer's broker.
func (c *MultiRDMAConsumer) Subscribe(p *sim.Proc, topic string, part int32, offset int64) error {
	if lead, err := c.e.leader(topic, part); err != nil || lead != c.broker {
		return fmt.Errorf("client: %s/%d is not led by %s", topic, part, c.broker.ID())
	}
	sub := &subscription{topic: topic, part: part, readCursor: readCursor{offset: offset}}
	if err := c.access(p, sub); err != nil {
		return err
	}
	c.subs = append(c.subs, sub)
	return nil
}

// Subscriptions reports the subscribed partition count.
func (c *MultiRDMAConsumer) Subscriptions() int { return len(c.subs) }

// access performs the TCP control exchange for one subscription.
func (c *MultiRDMAConsumer) access(p *sim.Proc, sub *subscription) error {
	c.corr++
	req := &kwire.ConsumeAccessReq{Topic: sub.topic, Partition: sub.part, Offset: sub.offset, Session: c.session}
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
	if resp.Err != kwire.ErrNone {
		return resp.Err.Err()
	}
	sub.readCursor.open(resp)
	return nil
}

func (c *MultiRDMAConsumer) release(p *sim.Proc, sub *subscription) error {
	c.corr++
	req := &kwire.ReleaseFileReq{Topic: sub.topic, Partition: sub.part, FileID: sub.file.id, Session: c.session}
	if err := c.ctl.Send(p, kwire.Encode(c.corr, req)); err != nil {
		return err
	}
	raw, err := c.ctl.Recv(p)
	if err != nil {
		return err
	}
	_, err = kwire.DecodeInto(raw, &c.releaseResp)
	c.ctl.Recycle(raw)
	if err != nil {
		return fmt.Errorf("client: release response: %w", err)
	}
	return c.releaseResp.Err.Err()
}

// refreshAllMetadata reads the smallest contiguous slot span covering every
// active subscription with ONE RDMA Read and updates all cursors (Fig. 9).
func (c *MultiRDMAConsumer) refreshAllMetadata(p *sim.Proc) error {
	lo, hi := -1, -1
	var addr uint64
	var rkey uint32
	for _, sub := range c.subs {
		if sub.file.slotIndex < 0 {
			continue
		}
		idx := int(sub.file.slotIndex)
		if lo == -1 || idx < lo {
			lo = idx
		}
		if idx > hi {
			hi = idx
		}
		addr, rkey = sub.file.slotAddr, sub.file.slotRKey
	}
	if lo == -1 {
		return nil // no mutable files; sealed files advance via re-access
	}
	span := (hi - lo + 1) * core.SlotSize
	if len(c.slotBuf) < span {
		c.slotBuf = make([]byte, span)
	}
	err := c.qp.PostSend(rdma.SendWR{
		Op: rdma.OpRead, Local: c.slotBuf[:span],
		RemoteAddr: addr + uint64(lo*core.SlotSize), RKey: rkey,
	})
	if err != nil {
		return err
	}
	if cqe := c.qp.SendCQ().Poll(p); cqe.Status != rdma.StatusOK {
		return fmt.Errorf("client: slot region read failed: %v", cqe.Status)
	}
	c.StatMetaReads++
	for _, sub := range c.subs {
		if sub.file.slotIndex < 0 {
			continue
		}
		off := (int(sub.file.slotIndex) - lo) * core.SlotSize
		sub.file.lastReadable, sub.file.mutable = core.ReadSlot(c.slotBuf[off : off+core.SlotSize])
	}
	return nil
}

// Poll performs one consume round across all subscriptions: if any
// partition has unread committed bytes, read from the next such partition
// (round-robin); otherwise refresh every slot with one read. An empty
// result means "nothing new anywhere". The records alias consumer-owned
// memory and are valid until the next Poll or Close.
func (c *MultiRDMAConsumer) Poll(p *sim.Proc) ([]TopicRecord, error) {
	if c.closed {
		return nil, ErrProducerClosed
	}
	if len(c.subs) == 0 {
		return nil, fmt.Errorf("client: no subscriptions")
	}
	for range c.subs {
		sub := c.subs[c.rr%len(c.subs)]
		c.rr++
		if sub.readPos < sub.file.lastReadable {
			return c.readFrom(p, sub)
		}
		if !sub.file.mutable {
			// Sealed and fully consumed: hop to the next file.
			if sub.file.slotIndex >= 0 {
				if err := c.release(p, sub); err != nil {
					return nil, err
				}
			}
			if err := c.access(p, sub); err != nil {
				return nil, err
			}
			if sub.readPos < sub.file.lastReadable {
				return c.readFrom(p, sub)
			}
		}
	}
	if err := c.refreshAllMetadata(p); err != nil {
		return nil, err
	}
	return nil, nil
}

// readFrom performs one data read on a subscription and decodes complete
// batches, exactly like the single-TP consumer.
func (c *MultiRDMAConsumer) readFrom(p *sim.Proc, sub *subscription) ([]TopicRecord, error) {
	n := int64(c.e.cfg.FetchSize)
	if avail := sub.file.lastReadable - sub.readPos; avail < n {
		n = avail
	}
	err := c.qp.PostSend(rdma.SendWR{
		Op: rdma.OpRead, Local: c.scratch[:n],
		RemoteAddr: sub.file.addr + uint64(sub.readPos), RKey: sub.file.rkey,
	})
	if err != nil {
		return nil, err
	}
	if cqe := c.qp.SendCQ().Poll(p); cqe.Status != rdma.StatusOK {
		return nil, fmt.Errorf("client: RDMA read failed: %v", cqe.Status)
	}
	c.StatDataReads++
	sub.readPos += n
	p.Sleep(c.e.cfg.ConsumeCPU)
	sub.partial = append(sub.partial, c.scratch[:n]...)
	recs, err := c.delivery.take(p, c.e, &sub.readCursor)
	if err != nil || len(recs) == 0 {
		return nil, err
	}
	c.tagged = appendTagged(c.tagged[:0], sub.topic, sub.part, recs)
	return c.tagged, nil
}

// appendTagged appends recs to dst, each tagged with its partition.
func appendTagged(dst []TopicRecord, topic string, part int32, recs []krecord.Record) []TopicRecord {
	for _, r := range recs {
		dst = append(dst, TopicRecord{Topic: topic, Partition: part, Record: r})
	}
	return dst
}

// Position returns the next offset for one subscription (-1 if unknown).
func (c *MultiRDMAConsumer) Position(topic string, part int32) int64 {
	for _, sub := range c.subs {
		if sub.topic == topic && sub.part == part {
			return sub.offset
		}
	}
	return -1
}

// Close disconnects the session.
func (c *MultiRDMAConsumer) Close() {
	if !c.closed {
		c.closed = true
		c.qp.Disconnect()
		c.ctl.Close()
	}
}
