package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"

	"kafkadirect/internal/krecord"
)

func TestOwnerAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "kafkadirect/internal/kwire.(*Scratch).Encode", "kafkadirect/internal/client.(*RPCProducer).Produce"}, "kwire"},
		{[]string{"runtime.chanrecv1", "kafkadirect/internal/sim.(*Proc).park", "kafkadirect/internal/tcpnet.(*Conn).Recv"}, "sim"},
		{[]string{"runtime.mallocgc", "main.(*rig).op", "kafkadirect/internal/sim.(*Env).Go.func1"}, "gen"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "rt.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "rt.sched"},
		{[]string{"runtime.nanotime", "runtime/pprof.profileWriter"}, "rt.other"},
		{[]string{"kafkadirect/internal/group.(*Coordinator).Join", "kafkadirect/internal/core.(*Broker).dispatch"}, "core"},
		{nil, "rt.other"},
	}
	for _, c := range cases {
		if got := owner(c.stack); got != c.want {
			t.Errorf("owner(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestCPUSplitSharesSumToOne(t *testing.T) {
	c := newCPUSplit()
	c.charge([]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "kafkadirect/internal/bufpool.Get"}, 3)
	c.charge([]string{"runtime.nextFreeFast", "runtime.mallocgcSmallNoscan", "runtime.mallocgc", "kafkadirect/internal/krecord.(*Batch).Records"}, 2)
	c.charge([]string{"runtime.schedule"}, 5)
	sum := 0.0
	for _, l := range layers {
		sum += c.frac(c.byLayer[l])
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v", sum)
	}
	if c.frac(c.memclr) != 0.3 || c.frac(c.malloc) != 0.2 || c.frac(c.byLayer["rt.sched"]) != 0.5 {
		t.Fatalf("memclr %v malloc %v sched %v", c.frac(c.memclr), c.frac(c.malloc), c.frac(c.byLayer["rt.sched"]))
	}
}

// pb is a minimal protobuf writer for hand-built profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, v []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(v)))
	p.b = append(p.b, v...)
	return p
}

func TestParseProfile(t *testing.T) {
	// Strings: 0 "", 1 sim park, 2 client produce, 3 chanrecv (inlined).
	prof := new(pb)
	for _, s := range []string{"", "kafkadirect/internal/sim.(*Proc).park", "kafkadirect/internal/client.(*RPCProducer).Produce", "runtime.chanrecv1"} {
		prof.bytes(6, []byte(s))
	}
	for id, name := range []uint64{1, 2, 3} {
		prof.bytes(5, new(pb).varint(1, uint64(id+1)).varint(2, name).b)
	}
	// Location 1 inlines chanrecv1 (innermost) into park; location 2 is Produce.
	prof.bytes(4, new(pb).varint(1, 1).bytes(4, new(pb).varint(1, 3).b).bytes(4, new(pb).varint(1, 1).b).b)
	prof.bytes(4, new(pb).varint(1, 2).bytes(4, new(pb).varint(1, 2).b).b)
	// One sample with packed location ids and values [7 samples, 70ms].
	locs := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 2)
	vals := binary.AppendUvarint(binary.AppendUvarint(nil, 7), 70e6)
	prof.bytes(2, new(pb).bytes(1, locs).bytes(2, vals).b)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	c := newCPUSplit()
	if err := c.add(gz.Bytes()); err != nil {
		t.Fatal(err)
	}
	if c.total != 7 || c.byLayer["sim"] != 7 {
		t.Fatalf("total %d, by layer %v; want 7 samples charged to sim", c.total, c.byLayer)
	}
	if _, err := parseProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	w := findWorkload("iot-stream")
	a, b, c := newInputs(w, 1), newInputs(w, 1), newInputs(w, 2)
	if !bytes.Equal(a.value(3, 17, 64, 2048), b.value(3, 17, 64, 2048)) || !bytes.Equal(a.event(nil, 1, 5), b.event(nil, 1, 5)) {
		t.Fatal("one seed gave two different inputs")
	}
	if bytes.Equal(a.value(3, 17, 64, 2048), c.value(3, 17, 64, 2048)) && bytes.Equal(a.event(nil, 1, 5), c.event(nil, 1, 5)) {
		t.Fatal("two seeds gave the same inputs")
	}
	// Stratified sizes: each block of five records takes each octave once.
	for block := 0; block < 50; block++ {
		var seen [5]bool
		for i := 0; i < 5; i++ {
			n := a.valueSize(2, block*5+i, 64, 2048)
			oct := 0
			for 64<<(oct+1) <= n {
				oct++
			}
			if n < 64 || n >= 2048 || seen[oct] {
				t.Fatalf("block %d: size %d repeats octave %d or is out of range", block, n, oct)
			}
			seen[oct] = true
		}
	}
	for _, due := range a.due {
		for i := 1; i < len(due); i++ {
			if due[i] < due[i-1] {
				t.Fatal("schedule not sorted")
			}
		}
	}
}

func TestCheckerRejectsWrongRecords(t *testing.T) {
	in := newInputs(findWorkload("rpc-produce"), 1)
	rec := func(off int64, stream, seq int, value []byte) krecord.Record {
		return krecord.Record{Key: putKey(make([]byte, 8), stream, seq), Value: value, Offset: off}
	}
	good := func(off int64, stream, seq int) krecord.Record {
		return rec(off, stream, seq, in.value(stream, seq, 64, 2048))
	}
	ck := newChecker(in, 64, 2048, false)
	for i, r := range []krecord.Record{good(0, 4, 0), good(1, 5, 0), good(2, 4, 1)} {
		if _, _, ok := ck.check(r); !ok {
			t.Fatalf("record %d rejected", i)
		}
	}
	corrupt := append([]byte(nil), in.value(4, 2, 64, 2048)...)
	corrupt[0] ^= 1
	for name, r := range map[string]krecord.Record{
		"offset gap":   good(4, 4, 2),
		"seq skipped":  good(3, 4, 3),
		"wrong bytes":  rec(3, 4, 2, corrupt),
		"missing key":  {Value: in.value(4, 2, 64, 2048), Offset: 3},
		"repeated seq": good(3, 5, 0),
	} {
		c := *ck
		c.seqs = map[int]int{4: 2, 5: 1}
		if _, _, ok := c.check(r); ok {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRepDigests runs whole reps of rdma-fanout (the smallest workload):
// the default seed reproduces its committed digest with and without
// tracing, and another seed changes the digest without failing an op.
func TestRepDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full simulations")
	}
	w := findWorkload("rdma-fanout")
	ref := runRep(w, newInputs(w, defaultSeed), false)
	if ref.failed != 0 || ref.digest != committed[w.name] {
		t.Fatalf("default seed: %d failed, digest %v, committed %v (%v)", ref.failed, ref.digest, committed[w.name], ref.failures)
	}
	if tr := runRep(w, newInputs(w, defaultSeed), true); tr.digest != ref.digest || len(tr.profile) == 0 {
		t.Fatalf("traced digest %v, untraced %v, profile %d bytes", tr.digest, ref.digest, len(tr.profile))
	}
	other := runRep(w, newInputs(w, 2), false)
	if other.failed != 0 || other.digest == ref.digest {
		t.Fatalf("seed 2: %d failed, digest %v", other.failed, other.digest)
	}
}
