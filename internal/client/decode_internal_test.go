package client

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

// threeBatches encodes three two-record batches at offsets 0, 2 and 4 and
// returns them back to back, with the start of each batch.
func threeBatches(t *testing.T) ([]byte, [3]int) {
	t.Helper()
	var buf []byte
	var starts [3]int
	for i := 0; i < 3; i++ {
		raw, err := krecord.Encode(1,
			krecord.Record{Value: []byte(fmt.Sprintf("v%d", 2*i)), Timestamp: 1},
			krecord.Record{Value: []byte(fmt.Sprintf("v%d", 2*i+1)), Timestamp: 1},
		)
		if err != nil {
			t.Fatal(err)
		}
		b, _, _ := krecord.Parse(raw)
		b.SetBaseOffset(int64(2 * i))
		starts[i] = len(buf)
		buf = append(buf, raw...)
	}
	return buf, starts
}

// corruptSecond flips one CRC-covered byte of the second batch.
func corruptSecond(buf []byte, starts [3]int) {
	buf[starts[2]-1] ^= 0x40
}

func TestDecodeBatchesFiltersAndStopsAtPartialTail(t *testing.T) {
	buf, starts := threeBatches(t)
	// From offset 3 (mid-batch), with the last batch cut short.
	out, next, err := decodeBatches(nil, buf[:len(buf)-1], 3)
	if err != nil {
		t.Fatal(err)
	}
	if next != 4 || len(out) != 1 || out[0].Offset != 3 || string(out[0].Value) != "v3" {
		t.Fatalf("decodeBatches = %d records (first %+v), next %d; want v3 and next 4", len(out), out, next)
	}
	if _, next, _ := decodeBatches(nil, buf[:starts[1]], 0); next != 2 {
		t.Fatalf("one complete batch: next %d, want 2", next)
	}
}

// A batch that fails validation must not let the good batches before it
// advance the position: their records are not delivered, so committing
// their offset would skip them.
func TestDecodeBatchesBadBatchSkipsNothing(t *testing.T) {
	buf, starts := threeBatches(t)
	corruptSecond(buf, starts)
	prior := []krecord.Record{{Value: []byte("prior")}}
	out, next, err := decodeBatches(prior, buf, 0)
	if !errors.Is(err, krecord.ErrBadCRC) {
		t.Fatalf("err = %v, want ErrBadCRC", err)
	}
	if len(out) != 1 || next != 0 {
		t.Fatalf("decodeBatches appended %d records and returned offset %d; want none and 0", len(out)-1, next)
	}
}

func TestDecodeBatchesAllocFree(t *testing.T) {
	buf, _ := threeBatches(t)
	out := make([]krecord.Record, 0, 6)
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if out, _, err = decodeBatches(out[:0], buf, 0); err != nil || len(out) != 6 {
			t.Fatal("decode failed")
		}
	}); n != 0 {
		t.Fatalf("decodeBatches: %v allocs/op, want 0", n)
	}
}

// The RDMA consumers' delivery step keeps the bytes of a bad batch buffered
// and the offset where it was, so the next Poll repeats the error.
func TestDeliveryLeavesPartialOnBadBatch(t *testing.T) {
	buf, starts := threeBatches(t)
	corruptSecond(buf, starts)
	env := sim.NewEnv(5)
	e := NewEndpoint(core.NewCluster(env, core.DefaultOptions()), "c", DefaultConfig())
	cur := &readCursor{partial: append([]byte(nil), buf...)}
	var d delivery
	env.Go("consumer", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			recs, err := d.take(p, e, cur)
			if !errors.Is(err, krecord.ErrBadCRC) || recs != nil {
				t.Errorf("take %d = %d records, %v; want ErrBadCRC", i, len(recs), err)
			}
		}
	})
	env.RunUntil(time.Second)
	env.Shutdown()
	if cur.offset != 0 || !bytes.Equal(cur.partial, buf) {
		t.Fatalf("offset %d, %d of %d bytes buffered; want 0 and all", cur.offset, len(cur.partial), len(buf))
	}
}

// An RPC consumer whose fetch response holds a corrupt batch after a good
// one returns the error and keeps its position. The stand-in broker answers
// every fetch with the same three batches, the second corrupted.
func TestRPCConsumerBadBatchKeepsPosition(t *testing.T) {
	buf, starts := threeBatches(t)
	corruptSecond(buf, starts)
	env := sim.NewEnv(5)
	cl := core.NewCluster(env, core.DefaultOptions())
	e := NewEndpoint(cl, "c", DefaultConfig())
	fake := cl.Stack().NewHost(cl.Network().NewNode("fake-broker"))
	l, err := fake.Listen(core.TCPPort)
	if err != nil {
		t.Fatal(err)
	}
	env.Go("fake-broker", func(p *sim.Proc) {
		conn := l.Accept(p)
		for {
			raw, err := conn.Recv(p)
			if err != nil {
				return
			}
			corr, _, err := kwire.Decode(raw)
			if err != nil {
				t.Errorf("fake broker: %v", err)
				return
			}
			if err := conn.Send(p, kwire.Encode(corr, &kwire.FetchResp{HighWatermark: 6, Data: buf})); err != nil {
				return
			}
		}
	})
	finished := false
	env.Go("consumer", func(p *sim.Proc) {
		defer env.Stop()
		conn, err := e.host.Dial(p, fake, core.TCPPort)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c := &RPCConsumer{e: e, t: &tcpTransport{conn: conn}, topic: "t"}
		for i := 0; i < 2; i++ {
			recs, err := c.Poll(p)
			if !errors.Is(err, krecord.ErrBadCRC) || len(recs) != 0 {
				t.Errorf("poll %d = %d records, %v; want ErrBadCRC", i, len(recs), err)
			}
			if c.Position() != 0 {
				t.Errorf("poll %d moved the position to %d past undelivered records", i, c.Position())
			}
		}
		finished = true
	})
	env.RunUntil(time.Second)
	env.Shutdown()
	if !finished {
		t.Fatal("consumer did not finish")
	}
}

// rdmaRoundAllocs runs RDMA produce rounds of one 512 B record and returns
// the steady-state heap allocations per round. With poll set, each round
// also polls a one-sided consumer until the record arrives.
func rdmaRoundAllocs(t *testing.T, poll bool) float64 {
	t.Helper()
	env := sim.NewEnv(3)
	opts := core.DefaultOptions()
	opts.Config.SegmentSize = 1 << 20
	opts.Config = opts.Config.WithRDMA()
	cl := core.NewCluster(env, opts)
	cl.AddBrokers(1)
	if err := cl.CreateTopic("t", 1, 1); err != nil {
		t.Fatal(err)
	}
	const warmup = 200
	const measured = 1000
	var m0, m1 runtime.MemStats
	finished := false
	env.Go("driver", func(p *sim.Proc) {
		defer env.Stop()
		pr, err := NewRDMAProducer(p, NewEndpoint(cl, "pr", DefaultConfig()), "t", 0, kwire.AccessExclusive, 1)
		if err != nil {
			t.Error(err)
			return
		}
		co, err := NewRDMAConsumer(p, NewEndpoint(cl, "co", DefaultConfig()), "t", 0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		rec := krecord.Record{Value: make([]byte, 512), Timestamp: 1}
		round := func() bool {
			if _, err := pr.Produce(p, rec); err != nil {
				t.Error(err)
				return false
			}
			for got := 0; poll && got == 0; {
				recs, err := co.Poll(p)
				if err != nil {
					t.Error(err)
					return false
				}
				got = len(recs)
			}
			return true
		}
		for i := 0; i < warmup; i++ {
			if !round() {
				return
			}
		}
		runtime.ReadMemStats(&m0)
		for i := 0; i < measured; i++ {
			if !round() {
				return
			}
		}
		runtime.ReadMemStats(&m1)
		finished = true
	})
	env.RunUntil(time.Minute)
	env.Shutdown()
	if !finished {
		t.Fatal("driver did not finish")
	}
	return float64(m1.Mallocs-m0.Mallocs) / measured
}

// A steady-state RDMA Poll that returns data allocates nothing: the read
// chunks, the delivery copy and the record slice are consumer-owned and
// reused. The produce-only run cancels the producer's and broker's own
// allocations. The difference is not exactly 0: the producer's receive
// queue slice regrows about once per hundred acknowledgements in either
// run, at points that shift with the extra sim time the polls take.
func TestRDMAPollSteadyStateAllocFree(t *testing.T) {
	base := rdmaRoundAllocs(t, false)
	withPoll := rdmaRoundAllocs(t, true)
	perPoll := withPoll - base
	t.Logf("produce %.2f, produce+poll %.2f allocs per round: %.2f per delivering poll", base, withPoll, perPoll)
	// Each delivering poll allocated 5 objects when it made a fresh
	// delivery copy, chunk list and record slices.
	const maxPerPoll = 0.1
	if perPoll > maxPerPoll {
		t.Fatalf("a delivering RDMA poll costs %.2f allocs, want 0 (bound %.1f)", perPoll, maxPerPoll)
	}
}
