package client

import (
	"strings"
	"testing"
	"time"

	"kafkadirect/internal/core"
	"kafkadirect/internal/kwire"
	"kafkadirect/internal/sim"
)

// A broker that rejects a file release must fail the Poll that issued it, as
// RDMAConsumer.releaseFile does. The control peer here is a stand-in broker
// that refuses every release with NOT_LEADER but grants every access, so a
// consumer that drops the release response carries on as if nothing
// happened. A real broker cannot be made to reject only the release: both
// requests fail on the same partition lookup.
func TestMultiConsumerSurfacesReleaseRejection(t *testing.T) {
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
			corr, msg, err := kwire.Decode(raw)
			if err != nil {
				t.Errorf("fake broker: %v", err)
				return
			}
			var resp kwire.Message = &kwire.ReleaseFileResp{Err: kwire.ErrNotLeader}
			if _, ok := msg.(*kwire.ConsumeAccessReq); ok {
				resp = &kwire.ConsumeAccessResp{Mutable: true, SlotIndex: -1}
			}
			if err := conn.Send(p, kwire.Encode(corr, resp)); err != nil {
				return
			}
		}
	})

	var pollErr error
	finished := false
	env.Go("consumer", func(p *sim.Proc) {
		defer env.Stop()
		ctl, err := e.host.Dial(p, fake, core.TCPPort)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		// One subscription on a sealed, fully read file holding slot 0: the
		// next Poll releases it before asking for the following file.
		c := &MultiRDMAConsumer{e: e, ctl: ctl, subs: []*subscription{{topic: "t", readCursor: readCursor{file: consumerFile{id: 3}}}}}
		_, pollErr = c.Poll(p)
		finished = true
	})
	env.RunUntil(time.Second)
	env.Shutdown()
	if !finished {
		t.Fatal("consumer did not finish")
	}
	if pollErr == nil || !strings.Contains(pollErr.Error(), "NOT_LEADER") {
		t.Fatalf("Poll error = %v, want the broker's NOT_LEADER release rejection", pollErr)
	}
}
