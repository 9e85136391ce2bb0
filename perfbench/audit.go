package main

import (
	"bytes"
	"sort"

	"kafkadirect/internal/klog"
	"kafkadirect/internal/krecord"
)

// audit checks every replica of every partition the workload wrote, after
// the measured phase: each stored batch passes its CRC, offsets are dense
// from 0, the partition holds exactly the records produced to it, and every
// follower holds the leader's bytes. Each discrepancy fails one op.
func (w *workload) audit(r *rig) {
	topics := make([]string, 0, len(w.topics))
	for t := range w.topics {
		topics = append(topics, t)
	}
	sort.Strings(topics)
	for _, topic := range topics {
		for part, want := range w.topics[topic] {
			leader := r.cl.LeaderOf(topic, int32(part))
			if leader == nil {
				r.res.fail(1, "audit %s/%d: no leader", topic, part)
				continue
			}
			lead := leader.Partition(topic, int32(part)).Log()
			for _, b := range r.cl.Brokers() {
				pt := b.Partition(topic, int32(part))
				if pt == nil {
					continue
				}
				if n, ok := auditLog(pt.Log(), lead); !ok || n != want {
					r.res.fail(1, "audit %s/%d on %s: %d valid records (want %d), leader bytes match %v", topic, part, b.ID(), n, want, ok)
				}
			}
		}
	}
}

// auditLog validates one replica's log and compares it with the leader's.
// It returns the number of records and whether every batch was valid,
// dense and byte-identical to the leader's.
func auditLog(l, lead *klog.Log) (int64, bool) {
	var next int64
	ok := true
	for i := 0; i < l.NumSegments(); i++ {
		seg := l.Segment(i)
		data := seg.Bytes()[:seg.Len()]
		n, err := krecord.Scan(data, func(b krecord.Batch) error {
			if err := b.Validate(); err != nil {
				return err
			}
			if b.BaseOffset() != next {
				ok = false
			}
			next = b.NextOffset()
			return nil
		})
		if err != nil || n != len(data) {
			ok = false
		}
		if ls := lead.Segment(i); ls == nil || ls.Len() < len(data) || !bytes.Equal(ls.Bytes()[:len(data)], data) {
			ok = false
		}
	}
	return next, ok
}
