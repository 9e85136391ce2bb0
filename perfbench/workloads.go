package main

import (
	"fmt"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

// workload is one seeded traffic mix. Each is sized so that a rep takes
// roughly a second of host time on a 2-CPU box, and each puts most of its
// work into different layers (README.md, "Workloads").
type workload struct {
	name string
	// chunks is the number of chunk samples per rep (chunk_ms_*).
	chunks int
	// simLimit stops a rep that failed to finish (a benchmark or program
	// defect); a healthy rep ends well before it.
	simLimit time.Duration
	// planned is the op count of one rep, set by build.
	planned int64

	schedule  func(in *inputs) [][]time.Duration
	configure func(o *core.Options)
	build     func(r *rig)
	// topics lists what audit checks after the measured phase: per topic,
	// the record count each partition must hold.
	topics map[string][]int64
}

var workloads = []*workload{rpcProduce(), rdmaFanout(), iotStream()}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// rpc-produce
// ---------------------------------------------------------------------------

const (
	rpcPartitions = 6
	rpcRecords    = 2880 // per producer
	rpcBatch      = 4    // records per produce request
	rpcMinValue   = 64
	rpcMaxValue   = 2048
)

func rpcProduce() *workload {
	w := &workload{
		name:     "rpc-produce",
		chunks:   50,
		simLimit: 60 * time.Second,
	}
	w.configure = func(o *core.Options) {
		o.Config.SegmentSize = 4 << 20
	}
	w.build = func(r *rig) {
		r.cl.AddBrokers(3)
		if err := r.cl.CreateTopic("rpc", rpcPartitions, 3); err != nil {
			panic(err)
		}
		for part := int32(0); part < rpcPartitions; part++ {
			part := part
			tcp, osu := 2*int(part), 2*int(part)+1
			r.spawn(fmt.Sprintf("tcp-producer-%d", part), func(p *sim.Proc) {
				pr, err := client.NewTCPProducer(p, r.endpoint(client.DefaultConfig()), "rpc", part, -1, int64(tcp+1))
				r.produceSync(p, pr, err, tcp, rpcRecords, rpcBatch, rpcMinValue, rpcMaxValue)
			})
			r.spawn(fmt.Sprintf("osu-producer-%d", part), func(p *sim.Proc) {
				pr, err := client.NewOSUProducer(p, r.endpoint(client.DefaultConfig()), "rpc", part, -1, int64(osu+1))
				r.produceSync(p, pr, err, osu, rpcRecords, rpcBatch, rpcMinValue, rpcMaxValue)
			})
			r.spawn(fmt.Sprintf("tcp-consumer-%d", part), func(p *sim.Proc) {
				co, err := client.NewTCPConsumer(p, r.endpoint(client.DefaultConfig()), "rpc", part, 0, "bench")
				if err != nil {
					r.failf(0, "%s: %v", p.Name(), err)
					return
				}
				r.tail(p, co, newChecker(r.in, rpcMinValue, rpcMaxValue, false), 2*rpcRecords, 0)
			})
		}
		counts := make([]int64, rpcPartitions)
		for i := range counts {
			counts[i] = 2 * rpcRecords
		}
		w.topics = map[string][]int64{"rpc": counts}
		w.planned = rpcPartitions * 4 * rpcRecords
	}
	return w
}

// ---------------------------------------------------------------------------
// rdma-fanout
// ---------------------------------------------------------------------------

const (
	fanoutConsumers   = 16 // per partition
	fanoutExclusive   = 290
	fanoutShared      = 145 // per shared producer
	fanoutMinValue    = 2 << 10
	fanoutMaxValue    = 64 << 10
	fanoutSegmentSize = 1 << 20
	fanoutIdle        = 20 * time.Microsecond
)

func rdmaFanout() *workload {
	w := &workload{
		name:     "rdma-fanout",
		chunks:   50,
		simLimit: 60 * time.Second,
	}
	w.configure = func(o *core.Options) {
		o.Config = o.Config.WithRDMA()
		o.Config.SegmentSize = fanoutSegmentSize
	}
	w.build = func(r *rig) {
		r.cl.AddBrokers(3)
		if err := r.cl.CreateTopic("fanout", 2, 3); err != nil {
			panic(err)
		}
		r.spawn("exclusive-producer", func(p *sim.Proc) {
			pr, err := client.NewRDMAProducer(p, r.endpoint(client.DefaultConfig()), "fanout", 0, kwire.AccessExclusive, 1)
			r.produceSync(p, pr, err, 0, fanoutExclusive, 1, fanoutMinValue, fanoutMaxValue)
		})
		for s := 1; s <= 2; s++ {
			s := s
			r.spawn(fmt.Sprintf("shared-producer-%d", s), func(p *sim.Proc) {
				pr, err := client.NewRDMAProducer(p, r.endpoint(client.DefaultConfig()), "fanout", 1, kwire.AccessShared, int64(s+1))
				r.produceSync(p, pr, err, s, fanoutShared, 1, fanoutMinValue, fanoutMaxValue)
			})
		}
		for part := int32(0); part < 2; part++ {
			part := part
			want := int64(fanoutExclusive)
			if part == 1 {
				want = 2 * fanoutShared
			}
			for i := 0; i < fanoutConsumers; i++ {
				r.spawn(fmt.Sprintf("rdma-consumer-%d-%d", part, i), func(p *sim.Proc) {
					co, err := client.NewRDMAConsumer(p, r.endpoint(client.DefaultConfig()), "fanout", part, 0)
					if err != nil {
						r.failf(0, "%s: %v", p.Name(), err)
						return
					}
					r.tail(p, co, newChecker(r.in, fanoutMinValue, fanoutMaxValue, false), want, fanoutIdle)
				})
			}
		}
		w.topics = map[string][]int64{"fanout": {fanoutExclusive, 2 * fanoutShared}}
		produced := int64(fanoutExclusive + 2*fanoutShared)
		w.planned = produced * (1 + fanoutConsumers)
	}
	return w
}

// ---------------------------------------------------------------------------
// iot-stream
// ---------------------------------------------------------------------------

const (
	iotTopics      = 4
	iotRate        = 2000 // events/s per sensor
	iotDuration    = 1500 * time.Millisecond
	iotBurstGap    = 250 * time.Millisecond
	iotBurst       = 150 // events per burst
	iotBurstJitter = 20 * time.Millisecond
	iotIdle        = 100 * time.Microsecond
	iotCommit      = 256 // polls between offset commits
)

func iotStream() *workload {
	w := &workload{
		name:     "iot-stream",
		chunks:   50,
		simLimit: 60 * time.Second,
	}
	// Each sensor publishes at a constant rate from a seeded phase, plus a
	// burst of iotBurst events every iotBurstGap, each burst shifted by a
	// seeded jitter; the schedule is the open loop's input.
	w.schedule = func(in *inputs) [][]time.Duration {
		due := make([][]time.Duration, iotTopics)
		interval := time.Second / iotRate
		for t := range due {
			next := time.Duration(in.hash(t, 0, 3) % uint64(interval))
			var sched []time.Duration
			for b := 1; ; b++ {
				burstAt := time.Duration(b)*iotBurstGap + time.Duration(in.hash(t, b, 4)%uint64(iotBurstJitter))
				for next < burstAt && next < iotDuration {
					sched = append(sched, next)
					next += interval
				}
				if burstAt >= iotDuration {
					break
				}
				for i := 0; i < iotBurst; i++ {
					sched = append(sched, burstAt)
				}
			}
			due[t] = sched
		}
		return due
	}
	w.configure = func(o *core.Options) {
		o.Config = o.Config.WithRDMA()
		o.Config.SegmentSize = 8 << 20
	}
	w.build = func(r *rig) {
		r.cl.AddBrokers(2)
		var events int64
		w.topics = map[string][]int64{}
		for t := 0; t < iotTopics; t++ {
			topic := fmt.Sprintf("iot-%d", t)
			if err := r.cl.CreateTopic(topic, 1, 2); err != nil {
				panic(err)
			}
			n := int64(len(r.in.due[t]))
			events += n
			w.topics[topic] = []int64{n}
		}
		due := func(stream, seq int) time.Duration { return r.in.due[stream][seq] }
		for t := 0; t < iotTopics; t++ {
			t := t
			topic := fmt.Sprintf("iot-%d", t)
			rdmaClients := t >= iotTopics/2
			r.spawn(fmt.Sprintf("sensor-%d", t), func(p *sim.Proc) {
				e := r.endpoint(client.DefaultConfig())
				var pr client.Producer
				var err error
				if rdmaClients {
					pr, err = client.NewRDMAProducer(p, e, topic, 0, kwire.AccessExclusive, int64(t+1))
				} else {
					pr, err = client.NewTCPProducer(p, e, topic, 0, -1, int64(t+1))
				}
				if err != nil {
					r.failf(0, "%s: %v", p.Name(), err)
					return
				}
				if !r.enter(p) {
					return
				}
				r.publish(p, pr, t, !rdmaClients)
			})
			r.spawn(fmt.Sprintf("engine-%d", t), func(p *sim.Proc) {
				e := r.endpoint(client.DefaultConfig())
				// Offset commits travel over TCP on both datapaths (§5.4).
				ctl, err := client.NewTCPConsumer(p, e, topic, 0, 0, "engine")
				if err != nil {
					r.failf(0, "%s: %v", p.Name(), err)
					return
				}
				co := client.Consumer(ctl)
				if rdmaClients {
					if co, err = client.NewRDMAConsumer(p, e, topic, 0, 0); err != nil {
						r.failf(0, "%s: %v", p.Name(), err)
						return
					}
				}
				ck := newChecker(r.in, 0, 0, true)
				if !r.enter(p) {
					return
				}
				want := int64(len(r.in.due[t]))
				var got int64
				for polls := 1; got < want; polls++ {
					recs, err := co.Poll(p)
					if err != nil {
						r.failf(0, "%s: poll: %v", p.Name(), err)
						return
					}
					r.polled(len(recs) > 0)
					n := r.consume(p, ck, recs, due)
					if n < 0 {
						return
					}
					got += int64(n)
					if n == 0 {
						p.Sleep(iotIdle)
					}
					if polls%iotCommit == 0 {
						if err := ctl.CommitOffset(p); err != nil {
							r.failf(0, "%s: commit: %v", p.Name(), err)
							return
						}
					}
				}
			})
		}
		w.planned = 2 * events
	}
	return w
}

// publish runs one sensor's open-loop schedule: each event is handed to the
// producer at its due time, or as soon as the producer is free. pipelined
// selects ProduceAsync (bounded in-flight window) over a synchronous Produce.
func (r *rig) publish(p *sim.Proc, pr client.Producer, stream int, pipelined bool) {
	var key [8]byte
	var buf []byte
	for seq, due := range r.in.due[stream] {
		at := r.s1 + due
		if now := p.Now(); at > now {
			p.Sleep(at - now)
		}
		if lag := p.Now() - at; lag > r.res.lagMax {
			r.res.lagMax = lag
		}
		buf = r.in.event(buf[:0], stream, seq)
		rec := krecord.Record{Key: putKey(key[:], stream, seq), Value: buf, Timestamp: int64(due)}
		var err error
		if pipelined {
			err = pr.ProduceAsync(p, rec)
		} else {
			_, err = pr.Produce(p, rec)
		}
		if err != nil {
			r.failf(1, "%s: produce %d: %v", p.Name(), seq, err)
			return
		}
		r.op(1)
	}
	if err := pr.Drain(p); err != nil {
		r.failf(0, "%s: drain: %v", p.Name(), err)
	}
}

// ---------------------------------------------------------------------------
// Shared party bodies
// ---------------------------------------------------------------------------

// produceSync is a closed-loop producer: n records in synchronous produce
// requests of batch records each, timing produce→ack in sim time. Every
// record acknowledged is one op.
func (r *rig) produceSync(p *sim.Proc, pr client.Producer, err error, stream, n, batch, lo, hi int) {
	if err != nil {
		r.failf(0, "%s: %v", p.Name(), err)
		return
	}
	if !r.enter(p) {
		return
	}
	keys := make([][8]byte, batch)
	recs := make([]krecord.Record, batch)
	for seq := 0; seq < n; seq += batch {
		for i := range recs {
			recs[i] = krecord.Record{Key: putKey(keys[i][:], stream, seq+i), Value: r.in.value(stream, seq+i, lo, hi), Timestamp: int64(p.Now())}
		}
		start := p.Now()
		if _, err := pr.Produce(p, recs...); err != nil {
			r.failf(int64(batch), "%s: produce %d: %v", p.Name(), seq, err)
			return
		}
		r.latency(p.Now() - start)
		r.op(batch)
	}
}

// tail is a consumer that polls until it has verified want records. idle,
// if positive, paces empty polls.
func (r *rig) tail(p *sim.Proc, co client.Consumer, ck *checker, want int64, idle time.Duration) {
	if !r.enter(p) {
		return
	}
	var got int64
	for got < want {
		recs, err := co.Poll(p)
		if err != nil {
			r.failf(0, "%s: poll: %v", p.Name(), err)
			return
		}
		r.polled(len(recs) > 0)
		n := r.consume(p, ck, recs, nil)
		if n < 0 {
			return
		}
		got += int64(n)
		if n == 0 && idle > 0 {
			p.Sleep(idle)
		}
	}
}
