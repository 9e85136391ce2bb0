package client_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

type rig struct {
	t   *testing.T
	env *sim.Env
	cl  *core.Cluster
}

func newRig(t *testing.T, brokers int) *rig {
	t.Helper()
	env := sim.NewEnv(3)
	opts := core.DefaultOptions()
	opts.Config.SegmentSize = 1 << 20
	opts.Config = opts.Config.WithRDMA()
	cl := core.NewCluster(env, opts)
	cl.AddBrokers(brokers)
	return &rig{t: t, env: env, cl: cl}
}

func (r *rig) drive(fn func(p *sim.Proc)) {
	r.t.Helper()
	done := false
	r.env.Go("driver", func(p *sim.Proc) {
		fn(p)
		done = true
		r.env.Stop()
	})
	r.env.RunUntil(60 * time.Second)
	if !done {
		r.t.Fatal("driver did not finish")
	}
}

func (r *rig) endpoint(name string) *client.Endpoint {
	return client.NewEndpoint(r.cl, name, client.DefaultConfig())
}

// keep appends copies of recs to dst. Poll's records alias the consumer's
// reused memory and are only valid until its next Poll, so a test that
// gathers records across polls must copy their bytes.
func keep(dst, recs []krecord.Record) []krecord.Record {
	for _, r := range recs {
		r.Key, r.Value = bytes.Clone(r.Key), bytes.Clone(r.Value)
		dst = append(dst, r)
	}
	return dst
}

func rec(s string) krecord.Record {
	return krecord.Record{Value: []byte(s), Timestamp: 1}
}

func TestUnknownTopicFailsCleanly(t *testing.T) {
	r := newRig(t, 1)
	r.drive(func(p *sim.Proc) {
		if _, err := client.NewTCPProducer(p, r.endpoint("c"), "nope", 0, 1, 1); err == nil {
			t.Fatal("producer for unknown topic should fail")
		}
		if _, err := client.NewRDMAConsumer(p, r.endpoint("c2"), "nope", 0, 0); err == nil {
			t.Fatal("consumer for unknown topic should fail")
		}
	})
}

func TestMixedSyncAsyncProduceRejected(t *testing.T) {
	r := newRig(t, 1)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		pr, err := client.NewTCPProducer(p, r.endpoint("c"), "t", 0, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.ProduceAsync(p, rec("a")); err != nil {
			t.Fatal(err)
		}
		if _, err := pr.Produce(p, rec("b")); err == nil {
			t.Fatal("mixing modes should fail")
		}
		if err := pr.Drain(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAsyncWindowIsBounded(t *testing.T) {
	r := newRig(t, 1)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		cfg := client.DefaultConfig()
		cfg.MaxInFlight = 4
		e := client.NewEndpointWithConfig(r.cl, "c", cfg)
		pr, err := client.NewRDMAProducer(p, e, "t", 0, kwire.AccessExclusive, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if err := pr.ProduceAsync(p, rec(fmt.Sprintf("m%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := pr.Drain(p); err != nil {
			t.Fatal(err)
		}
		pt := r.cl.LeaderOf("t", 0).Partition("t", 0)
		if pt.Log().HighWatermark() != 64 {
			t.Fatalf("HW %d, want 64", pt.Log().HighWatermark())
		}
	})
}

func TestProducerClosedErrors(t *testing.T) {
	r := newRig(t, 1)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		pr, err := client.NewTCPProducer(p, r.endpoint("c"), "t", 0, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		pr.Close()
		if _, err := pr.Produce(p, rec("x")); err != client.ErrProducerClosed {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestRDMAProducerGrantTracksWritePos(t *testing.T) {
	r := newRig(t, 1)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		pr, err := client.NewRDMAProducer(p, r.endpoint("c"), "t", 0, kwire.AccessExclusive, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, pos0, length := pr.Grant()
		if pos0 != 0 || length != 1<<20 {
			t.Fatalf("initial grant pos=%d len=%d", pos0, length)
		}
		if _, err := pr.Produce(p, rec("abc")); err != nil {
			t.Fatal(err)
		}
		_, pos1, _ := pr.Grant()
		if pos1 <= pos0 {
			t.Fatalf("write position did not advance: %d", pos1)
		}
	})
}

func TestConsumerPipelineDeliversSameRecords(t *testing.T) {
	// Pipelined reads (§7) are a bandwidth optimisation; record content and
	// ordering must be identical to depth-1 reads.
	r := newRig(t, 1)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		pr, _ := client.NewRDMAProducer(p, r.endpoint("pr"), "t", 0, kwire.AccessExclusive, 1)
		const n = 200
		for i := 0; i < n; i++ {
			if err := pr.ProduceAsync(p, rec(fmt.Sprintf("payload-%04d", i))); err != nil {
				t.Fatal(err)
			}
		}
		pr.Drain(p)

		read := func(depth int) []string {
			co, err := client.NewRDMAConsumer(p, r.endpoint(fmt.Sprintf("co-%d", depth)), "t", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			co.Pipeline = depth
			var vals []string
			for len(vals) < n {
				recs, err := co.Poll(p)
				if err != nil {
					t.Fatal(err)
				}
				for _, rr := range recs {
					vals = append(vals, string(rr.Value))
				}
			}
			return vals
		}
		plain := read(1)
		deep := read(8)
		for i := range plain {
			if plain[i] != deep[i] {
				t.Fatalf("pipelined read diverges at %d: %q vs %q", i, plain[i], deep[i])
			}
		}
	})
}

func TestConsumerPositionAdvances(t *testing.T) {
	r := newRig(t, 1)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		pr, _ := client.NewRDMAProducer(p, r.endpoint("pr"), "t", 0, kwire.AccessExclusive, 1)
		for i := 0; i < 10; i++ {
			pr.Produce(p, rec("x"))
		}
		co, _ := client.NewRDMAConsumer(p, r.endpoint("co"), "t", 0, 4)
		var got []krecord.Record
		for len(got) < 6 {
			recs, err := co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
			got = keep(got, recs)
		}
		if got[0].Offset != 4 {
			t.Fatalf("first delivered offset %d, want 4", got[0].Offset)
		}
		if co.Position() != 10 {
			t.Fatalf("position %d, want 10", co.Position())
		}
	})
}

func TestOSUTransportCarriesLargeBatches(t *testing.T) {
	r := newRig(t, 1)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		pr, err := client.NewOSUProducer(p, r.endpoint("c"), "t", 0, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		big := bytes.Repeat([]byte("z"), 512<<10)
		if _, err := pr.Produce(p, krecord.Record{Value: big, Timestamp: 1}); err != nil {
			t.Fatal(err)
		}
		co, err := client.NewOSUConsumer(p, r.endpoint("c2"), "t", 0, 0, "g")
		if err != nil {
			t.Fatal(err)
		}
		var recs []krecord.Record
		for len(recs) == 0 {
			recs, err = co.Poll(p)
			if err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(recs[0].Value, big) {
			t.Fatal("payload corrupted over OSU transport")
		}
	})
}

func TestOffsetCommitFetchRoundTrip(t *testing.T) {
	r := newRig(t, 1)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		pr, _ := client.NewTCPProducer(p, r.endpoint("pr"), "t", 0, 1, 1)
		for i := 0; i < 5; i++ {
			pr.Produce(p, rec("x"))
		}
		co, _ := client.NewTCPConsumer(p, r.endpoint("co"), "t", 0, 0, "team")
		for co.Position() < 5 {
			if _, err := co.Poll(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := co.CommitOffset(p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSharedProducerOverflowRollsToNewFile(t *testing.T) {
	r := newRig(t, 1)
	r.env = sim.NewEnv(3) // fresh env with small segments below
	opts := core.DefaultOptions()
	opts.Config = opts.Config.WithRDMA()
	opts.Config.SegmentSize = 2048
	r.cl = core.NewCluster(r.env, opts)
	r.cl.AddBrokers(1)
	r.cl.CreateTopic("t", 1, 1)
	r.drive(func(p *sim.Proc) {
		pr, err := client.NewRDMAProducer(p, r.endpoint("c"), "t", 0, kwire.AccessShared, 1)
		if err != nil {
			t.Fatal(err)
		}
		const n = 30
		for i := 0; i < n; i++ {
			if _, err := pr.Produce(p, krecord.Record{Value: bytes.Repeat([]byte("s"), 256), Timestamp: 1}); err != nil {
				t.Fatalf("produce %d: %v", i, err)
			}
		}
		pt := r.cl.LeaderOf("t", 0).Partition("t", 0)
		if pt.Log().HighWatermark() != n {
			t.Fatalf("HW %d, want %d", pt.Log().HighWatermark(), n)
		}
		if pt.Log().NumSegments() < 3 {
			t.Fatalf("segments %d, expected overflow-driven rolls", pt.Log().NumSegments())
		}
	})
}

func TestWriteSendNotificationProduces(t *testing.T) {
	// §4.2.2's alternative notification method must commit records exactly
	// like WriteWithImm, in both access modes.
	for _, mode := range []kwire.AccessMode{kwire.AccessExclusive, kwire.AccessShared} {
		r := newRig(t, 1)
		r.cl.CreateTopic("t", 1, 1)
		r.drive(func(p *sim.Proc) {
			pr, err := client.NewRDMAProducer(p, r.endpoint("c"), "t", 0, mode, 1)
			if err != nil {
				t.Fatal(err)
			}
			pr.Notify = client.NotifyWriteSend
			pr.MetaSize = 128
			for i := 0; i < 12; i++ {
				base, err := pr.Produce(p, rec(fmt.Sprintf("ws-%d", i)))
				if err != nil {
					t.Fatalf("%v produce %d: %v", mode, i, err)
				}
				if base != int64(i) {
					t.Fatalf("%v offset %d, want %d", mode, base, i)
				}
			}
			pt := r.cl.LeaderOf("t", 0).Partition("t", 0)
			if pt.Log().HighWatermark() != 12 {
				t.Fatalf("%v HW %d", mode, pt.Log().HighWatermark())
			}
		})
	}
}

func TestWriteSendSlightlySlowerThanWriteImm(t *testing.T) {
	// Fig. 7 in-system: the two-WR notification costs a little extra latency.
	measure := func(notify client.NotifyMode) time.Duration {
		r := newRig(t, 1)
		r.cl.CreateTopic("t", 1, 1)
		var lat time.Duration
		r.drive(func(p *sim.Proc) {
			pr, _ := client.NewRDMAProducer(p, r.endpoint("c"), "t", 0, kwire.AccessExclusive, 1)
			pr.Notify = notify
			pr.Produce(p, rec("warm"))
			start := p.Now()
			const n = 20
			for i := 0; i < n; i++ {
				if _, err := pr.Produce(p, rec("x")); err != nil {
					t.Fatal(err)
				}
			}
			lat = (p.Now() - start) / n
		})
		return lat
	}
	imm := measure(client.NotifyWriteImm)
	ws := measure(client.NotifyWriteSend)
	if ws <= imm {
		t.Fatalf("Write+Send %v should cost more than WriteWithImm %v", ws, imm)
	}
	if ws-imm > 5*time.Microsecond {
		t.Fatalf("Write+Send penalty %v implausibly large", ws-imm)
	}
}
