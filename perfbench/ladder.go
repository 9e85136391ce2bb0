package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"kafkadirect"
	"kafkadirect/internal/bufpool"
	"kafkadirect/internal/core"
	"kafkadirect/internal/fabric"
	"kafkadirect/internal/klog"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/rdma"
	"kafkadirect/internal/sim"
	"kafkadirect/internal/tcpnet"
)

// The layer ladder times one operation through each layer's public entry
// points, in isolation: host ns per op (and allocations per op where a
// package test pins the operation at zero). Each rung runs ladderRuns times
// and reports the median; only the marked loop is timed, never its set-up.

const ladderRuns = 5

// meter times one loop and counts its allocations. Its metric samples are
// allocated once, so reading them adds no allocation to the loop.
type meter struct {
	s     []metrics.Sample
	t     time.Time
	a     uint64
	dt    time.Duration
	alloc uint64
}

func newMeter() *meter {
	return &meter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}}
}

func (m *meter) objects() uint64 {
	metrics.Read(m.s)
	return m.s[0].Value.Uint64() + m.s[1].Value.Uint64()
}

func (m *meter) start() { m.a = m.objects(); m.t = time.Now() }

func (m *meter) stop() {
	m.dt += time.Since(m.t)
	m.alloc += m.objects() - m.a
}

type rung struct {
	name   string // metric prefix, e.g. "sim.switch"
	n      int    // ops per run
	allocs bool   // also report <name>_allocs
	run    func(m *meter, n int)
}

var ladder = []rung{
	{"sim.timer", 200000, false, ladderTimer},
	{"sim.switch", 50000, true, ladderSwitch},
	{"sim.queue_handoff", 50000, false, ladderQueue},
	{"fabric.deliver", 100000, false, ladderDeliver},
	{"tcpnet.sendrecv", 20000, false, ladderTCP},
	{"rdma.write_imm", 20000, false, func(m *meter, n int) { ladderRDMA(m, n, rdma.OpWriteImm) }},
	{"rdma.read", 20000, false, func(m *meter, n int) { ladderRDMA(m, n, rdma.OpRead) }},
	{"rdma.faa", 20000, false, func(m *meter, n int) { ladderRDMA(m, n, rdma.OpFetchAdd) }},
	{"krecord.build_crc_1k", 20000, false, func(m *meter, n int) { ladderBuildCRC(m, n, 1<<10) }},
	{"krecord.build_crc_64k", 2000, false, func(m *meter, n int) { ladderBuildCRC(m, n, 64<<10) }},
	{"klog.append", 20000, false, ladderAppend},
	{"klog.locate_1k", 100000, false, func(m *meter, n int) { ladderLocate(m, n, 1000) }},
	{"klog.locate_100k", 1000, false, func(m *meter, n int) { ladderLocate(m, n, 100000) }},
	{"kwire.produce_roundtrip", 100000, true, ladderKwireProduce},
	{"kwire.fetch_roundtrip", 50000, false, ladderKwireFetch},
	{"bufpool.get_put_64k", 20000, false, func(m *meter, n int) { ladderBufpool(m, n, 64<<10) }},
	{"bufpool.get_put_16m", 2000, false, func(m *meter, n int) { ladderBufpool(m, n, 16<<20) }},
	{"core.dispatch_tcp", 5000, false, ladderDispatch},
	{"client.produce_tcp", 3000, false, func(m *meter, n int) { ladderProduce(m, n, "tcp") }},
	{"client.produce_osu", 3000, false, func(m *meter, n int) { ladderProduce(m, n, "osu") }},
	{"client.produce_rdma", 3000, false, func(m *meter, n int) { ladderProduce(m, n, "rdma") }},
	{"client.poll_rdma", 3000, false, ladderPollRDMA},
}

// runLadder runs every rung and adds its metrics.
func runLadder(m metricSet) {
	for _, r := range ladder {
		var ns, allocs []float64
		for i := 0; i < ladderRuns; i++ {
			runtime.GC()
			mt := newMeter()
			r.run(mt, r.n)
			ns = append(ns, float64(mt.dt.Nanoseconds())/float64(r.n))
			allocs = append(allocs, float64(mt.alloc)/float64(r.n))
		}
		m.add(r.name+"_ns", "ns", median(ns))
		if r.allocs {
			m.add(r.name+"_allocs", "count", median(allocs))
		}
	}
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("perfbench ladder: %v", err))
	}
}

// ladderTimer: one inline timer event (Env.After) scheduled and dispatched.
func ladderTimer(m *meter, n int) {
	env := sim.NewEnv(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < n {
			env.After(time.Microsecond, tick)
		}
	}
	env.After(time.Microsecond, tick)
	m.start()
	env.Run()
	m.stop()
}

// ladderSwitch: one process park/resume round trip (Proc.Sleep).
func ladderSwitch(m *meter, n int) {
	env := sim.NewEnv(1)
	env.Go("sleeper", func(p *sim.Proc) {
		p.Sleep(time.Microsecond) // the goroutine's first resume is set-up
		m.start()
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
		m.stop()
	})
	env.Run()
}

// ladderQueue: one item handed between two processes through a Queue.
func ladderQueue(m *meter, n int) {
	env := sim.NewEnv(1)
	q := sim.NewQueue[int]()
	env.Go("consumer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q.Pop(p)
		}
		m.stop()
	})
	env.Go("producer", func(p *sim.Proc) {
		m.start()
		for i := 0; i < n; i++ {
			q.Push(i)
			p.Yield()
		}
	})
	env.Run()
}

// ladderDeliver: one fabric message, reserved and delivered.
func ladderDeliver(m *meter, n int) {
	env := sim.NewEnv(1)
	net := fabric.New(env, fabric.DefaultConfig())
	a, b := net.NewNode("a"), net.NewNode("b")
	count := 0
	var hop func()
	hop = func() {
		count++
		if count < n {
			net.Deliver(a, b, 1024, hop)
		}
	}
	net.Deliver(a, b, 1024, hop)
	m.start()
	env.Run()
	m.stop()
}

// ladderTCP: one 1 KiB message from Conn.Send to the peer's Recv.
func ladderTCP(m *meter, n int) {
	env := sim.NewEnv(1)
	net := fabric.New(env, fabric.DefaultConfig())
	stack := tcpnet.NewStack(net, tcpnet.DefaultConfig())
	ha, hb := stack.NewHost(net.NewNode("a")), stack.NewHost(net.NewNode("b"))
	l, err := hb.Listen(9)
	must(err)
	env.Go("server", func(p *sim.Proc) {
		c := l.Accept(p)
		for i := 0; i < n; i++ {
			buf, err := c.Recv(p)
			must(err)
			c.Recycle(buf)
		}
		m.stop()
	})
	env.Go("client", func(p *sim.Proc) {
		c, err := ha.Dial(p, hb, 9)
		must(err)
		frame := make([]byte, 1024)
		m.start()
		for i := 0; i < n; i++ {
			must(c.Send(p, frame))
		}
	})
	env.Run()
}

// ladderRDMA: one signaled work request from PostSend to its CQE.
func ladderRDMA(m *meter, n int, op rdma.Opcode) {
	env := sim.NewEnv(1)
	net := fabric.New(env, fabric.DefaultConfig())
	da := rdma.NewDevice(net.NewNode("a"), rdma.DefaultCosts())
	db := rdma.NewDevice(net.NewNode("b"), rdma.DefaultCosts())
	qa, qb := da.CreateQP(rdma.QPConfig{}), db.CreateQP(rdma.QPConfig{})
	must(rdma.Connect(qa, qb))
	mr, err := db.AllocPD().RegisterMR(make([]byte, 64<<10), rdma.AccessRemoteRead|rdma.AccessRemoteWrite|rdma.AccessRemoteAtomic)
	must(err)
	const depth = 16
	for i := 0; i < depth; i++ {
		must(qb.PostRecv(rdma.RQE{WRID: uint64(i)}))
	}
	local := make([]byte, 1024)
	if op == rdma.OpFetchAdd {
		local = local[:8]
	}
	wr := rdma.SendWR{Op: op, Local: local, RemoteAddr: mr.Addr(), RKey: mr.RKey(), Imm: 1, Add: 1}
	env.Go("requester", func(p *sim.Proc) {
		m.start()
		for i := 0; i < n; i++ {
			must(qa.PostSend(wr))
			if cqe := qa.SendCQ().Poll(p); cqe.Status != rdma.StatusOK {
				must(fmt.Errorf("%v completed with %v", op, cqe.Status))
			}
			// A WRITE_WITH_IMM consumed a receive at the responder: repost it.
			if cqe, ok := qb.RecvCQ().TryPoll(); ok {
				must(qb.PostRecv(rdma.RQE{WRID: cqe.WRID}))
			}
		}
		m.stop()
	})
	env.Run()
}

// ladderBuildCRC: build a one-record batch (CRC computed) and validate it.
func ladderBuildCRC(m *meter, n, size int) {
	b := krecord.NewBuilder(1)
	rec := krecord.Record{Key: make([]byte, 8), Value: make([]byte, size), Timestamp: 1}
	m.start()
	for i := 0; i < n; i++ {
		b.Reset()
		must(b.Append(rec))
		raw, err := b.Bytes()
		must(err)
		batch, _, err := krecord.Parse(raw)
		must(err)
		must(batch.Validate())
	}
	m.stop()
}

// ladderBatch returns a ~150-byte single-record batch.
func ladderBatch() krecord.Batch {
	raw, err := krecord.Encode(1, krecord.Record{Key: make([]byte, 8), Value: make([]byte, 100), Timestamp: 1})
	must(err)
	batch, _, err := krecord.Parse(raw)
	must(err)
	return batch
}

// ladderAppend: one batch appended to a log (copy plus index entry).
func ladderAppend(m *meter, n int) {
	l := klog.New(klog.Config{SegmentSize: 8 << 20})
	batch := ladderBatch()
	m.start()
	for i := 0; i < n; i++ {
		_, _, err := l.Append(batch)
		must(err)
	}
	m.stop()
	l.Release()
}

// ladderLocate: one offset lookup in a log whose segment indexes entries
// batches.
func ladderLocate(m *meter, n, entries int) {
	l := klog.New(klog.Config{SegmentSize: 32 << 20})
	batch := ladderBatch()
	for i := 0; i < entries; i++ {
		_, _, err := l.Append(batch)
		must(err)
	}
	x := uint64(1)
	m.start()
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		_, _, err := l.Locate(int64((x >> 33) % uint64(entries)))
		must(err)
	}
	m.stop()
	l.Release()
}

// ladderKwireProduce: encode a produce request into scratch and decode it
// into a reused message (the round trip kwire's tests pin at 0 allocs).
func ladderKwireProduce(m *meter, n int) {
	var enc kwire.Scratch
	req := &kwire.ProduceReq{Topic: "events", Partition: 3, Acks: -1, Batch: make([]byte, 512)}
	var dst kwire.ProduceReq
	_, err := kwire.DecodeInto(enc.Encode(1, req), &dst) // warm the scratch state
	must(err)
	m.start()
	for i := 0; i < n; i++ {
		_, err := kwire.DecodeInto(enc.Encode(uint32(i), req), &dst)
		must(err)
	}
	m.stop()
}

// ladderKwireFetch: the same round trip for a 4 KiB fetch response.
func ladderKwireFetch(m *meter, n int) {
	var enc kwire.Scratch
	resp := &kwire.FetchResp{HighWatermark: 100, LogEndOffset: 120, Data: make([]byte, 4096)}
	var dst kwire.FetchResp
	_, err := kwire.DecodeInto(enc.Encode(1, resp), &dst)
	must(err)
	m.start()
	for i := 0; i < n; i++ {
		_, err := kwire.DecodeInto(enc.Encode(uint32(i), resp), &dst)
		must(err)
	}
	m.stop()
}

// ladderBufpool: a pooled buffer taken and returned with a 4 KiB dirty
// prefix to re-zero.
func ladderBufpool(m *meter, n, size int) {
	bufpool.Put(bufpool.Get(size), 0)
	m.start()
	for i := 0; i < n; i++ {
		buf := bufpool.Get(size)
		buf[0] = 1
		bufpool.Put(buf, 4096)
	}
	m.stop()
}

// ladderDispatch: a raw kwire produce frame sent to a broker over tcpnet
// and its response received: the broker's whole TCP request path.
func ladderDispatch(m *meter, n int) {
	env := sim.NewEnv(1)
	cl := core.NewCluster(env, core.DefaultOptions())
	cl.AddBrokers(1)
	must(cl.CreateTopic("t", 1, 1))
	batch, err := krecord.Encode(1, krecord.Record{Value: make([]byte, 512), Timestamp: 1})
	must(err)
	env.Go("raw-client", func(p *sim.Proc) {
		host := cl.Stack().NewHost(cl.Network().NewNode("raw"))
		conn, err := host.Dial(p, cl.Brokers()[0].Host(), core.TCPPort)
		must(err)
		var enc kwire.Scratch
		req := kwire.ProduceReq{Topic: "t", Acks: 1, Batch: batch}
		var resp kwire.ProduceResp
		m.start()
		for i := 0; i < n; i++ {
			must(conn.Send(p, enc.Encode(uint32(i), &req)))
			raw, err := conn.Recv(p)
			must(err)
			_, err = kwire.DecodeInto(raw, &resp)
			must(err)
			conn.Recycle(raw)
			must(resp.Err.Err())
		}
		m.stop()
		env.Stop()
	})
	env.Run()
	env.Shutdown()
	cl.Release()
}

// ladderProduce: one synchronous Produce through the public facade.
func ladderProduce(m *meter, n int, stack string) {
	s := kafkadirect.NewSim(kafkadirect.Options{Brokers: 1, RDMA: stack == "rdma"})
	s.MustCreateTopic("t", 1, 1)
	rec := kafkadirect.Record{Value: make([]byte, 512), Timestamp: 1}
	s.Run(func(p *sim.Proc) {
		var pr interface {
			Produce(*sim.Proc, ...krecord.Record) (int64, error)
		}
		switch stack {
		case "tcp":
			pr = s.MustTCPProducer(p, "t", 0, 1)
		case "osu":
			pr = s.MustOSUProducer(p, "t", 0, 1)
		default:
			pr = s.MustRDMAProducer(p, "t", 0, kafkadirect.Exclusive)
		}
		m.start()
		for i := 0; i < n; i++ {
			_, err := pr.Produce(p, rec)
			must(err)
		}
		m.stop()
	})
	s.Shutdown()
	s.Cluster().Release()
}

// ladderPollRDMA: one RDMA consumer Poll that returns a freshly produced
// 512-byte record (the produce is not timed).
func ladderPollRDMA(m *meter, n int) {
	s := kafkadirect.NewSim(kafkadirect.Options{Brokers: 1, RDMA: true})
	s.MustCreateTopic("t", 1, 1)
	rec := kafkadirect.Record{Value: make([]byte, 512), Timestamp: 1}
	s.Run(func(p *sim.Proc) {
		pr := s.MustRDMAProducer(p, "t", 0, kafkadirect.Exclusive)
		co := s.MustRDMAConsumer(p, "t", 0, 0)
		for i := 0; i < n; i++ {
			_, err := pr.Produce(p, rec)
			must(err)
			m.start()
			for got := 0; got == 0; {
				recs, err := co.Poll(p)
				must(err)
				got = len(recs)
			}
			m.stop()
		}
	})
	s.Shutdown()
	s.Cluster().Release()
}
