package krecord

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustEncode(t *testing.T, pid int64, recs ...Record) []byte {
	t.Helper()
	buf, err := Encode(pid, recs...)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestRoundTripSingleRecord(t *testing.T) {
	buf := mustEncode(t, 7, Record{Key: []byte("k"), Value: []byte("v"), Timestamp: 1000})
	batch, n, err := Parse(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("parse: n=%d err=%v", n, err)
	}
	if err := batch.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if batch.ProducerID() != 7 || batch.Count() != 1 {
		t.Fatalf("pid=%d count=%d", batch.ProducerID(), batch.Count())
	}
	recs, err := batch.Records()
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	if string(r.Key) != "k" || string(r.Value) != "v" || r.Timestamp != 1000 {
		t.Fatalf("record %+v", r)
	}
}

func TestOffsetsAssignedInPlaceWithoutBreakingCRC(t *testing.T) {
	buf := mustEncode(t, 1,
		Record{Value: []byte("a"), Timestamp: 5},
		Record{Value: []byte("b"), Timestamp: 6},
		Record{Value: []byte("c"), Timestamp: 9},
	)
	batch, _, _ := Parse(buf)
	batch.SetBaseOffset(1234)
	if err := batch.Validate(); err != nil {
		t.Fatalf("offset rewrite broke CRC: %v", err)
	}
	recs, _ := batch.Records()
	for i, r := range recs {
		if r.Offset != 1234+int64(i) {
			t.Fatalf("record %d offset %d", i, r.Offset)
		}
	}
	if batch.NextOffset() != 1237 {
		t.Fatalf("next offset %d", batch.NextOffset())
	}
}

func TestNullAndEmptyFieldsAreDistinct(t *testing.T) {
	buf := mustEncode(t, 1,
		Record{Key: nil, Value: []byte{}, Timestamp: 0},
		Record{Key: []byte{}, Value: nil, Timestamp: 0},
	)
	batch, _, _ := Parse(buf)
	recs, err := batch.Records()
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Key != nil || recs[0].Value == nil {
		t.Fatalf("record 0: key=%v value=%v", recs[0].Key, recs[0].Value)
	}
	if recs[1].Key == nil || recs[1].Value != nil {
		t.Fatalf("record 1: key=%v value=%v", recs[1].Key, recs[1].Value)
	}
}

func TestCorruptionDetected(t *testing.T) {
	buf := mustEncode(t, 1, Record{Value: bytes.Repeat([]byte("x"), 100), Timestamp: 1})
	for _, pos := range []int{17, 18, HeaderSize, len(buf) - 1} {
		corrupted := append([]byte(nil), buf...)
		corrupted[pos] ^= 0x40
		batch, _, err := Parse(corrupted)
		if err != nil {
			continue // structural rejection also counts
		}
		if batch.Validate() == nil {
			t.Fatalf("flip at %d not detected", pos)
		}
	}
}

func TestBaseOffsetCorruptionNotCRCProtected(t *testing.T) {
	// By design: the base offset is broker-owned and excluded from the CRC.
	buf := mustEncode(t, 1, Record{Value: []byte("x"), Timestamp: 1})
	buf[3] ^= 0xff
	batch, _, _ := Parse(buf)
	if err := batch.Validate(); err != nil {
		t.Fatalf("offset bytes must not be CRC-covered: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, _, err := Parse(make([]byte, 4)); err != ErrTooShort {
		t.Fatalf("short: %v", err)
	}
	buf := mustEncode(t, 1, Record{Value: []byte("x"), Timestamp: 1})
	bad := append([]byte(nil), buf...)
	bad[12] = 9
	if _, _, err := Parse(bad); err != ErrBadMagic {
		t.Fatalf("magic: %v", err)
	}
	if _, _, err := Parse(buf[:len(buf)-1]); err != ErrTooShort {
		t.Fatalf("truncated: %v", err)
	}
}

func TestEmptyBuilderFails(t *testing.T) {
	if _, err := NewBuilder(1).Bytes(); err != ErrEmptyBatch {
		t.Fatalf("err = %v", err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	b := NewBuilder(1)
	err := b.Append(Record{Value: make([]byte, MaxRecordSize+1)})
	if err != ErrRecordSize {
		t.Fatalf("err = %v", err)
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(1)
	b.Append(Record{Value: []byte("a"), Timestamp: 1})
	b.Reset()
	if b.Count() != 0 || b.Size() != HeaderSize {
		t.Fatalf("reset left count=%d size=%d", b.Count(), b.Size())
	}
	b.Append(Record{Value: []byte("b"), Timestamp: 2})
	buf, err := b.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	batch, _, _ := Parse(buf)
	recs, _ := batch.Records()
	if string(recs[0].Value) != "b" {
		t.Fatal("stale data after reset")
	}
}

func TestPeekSize(t *testing.T) {
	buf := mustEncode(t, 1, Record{Value: []byte("hello"), Timestamp: 1})
	if _, ok := PeekSize(buf[:11]); ok {
		t.Fatal("PeekSize should need 12 bytes")
	}
	size, ok := PeekSize(buf[:12])
	if !ok || size != len(buf) {
		t.Fatalf("PeekSize = %d,%v want %d,true", size, ok, len(buf))
	}
}

func TestScanStopsAtPartialTail(t *testing.T) {
	b1 := mustEncode(t, 1, Record{Value: []byte("one"), Timestamp: 1})
	b2 := mustEncode(t, 1, Record{Value: []byte("two"), Timestamp: 2})
	joined := append(append([]byte(nil), b1...), b2...)
	// Chop the second batch in half — as a fixed-size RDMA read would.
	partial := joined[:len(b1)+len(b2)/2]
	var seen int
	consumed, err := Scan(partial, func(b Batch) error { seen++; return b.Validate() })
	if err != nil {
		t.Fatal(err)
	}
	if seen != 1 || consumed != len(b1) {
		t.Fatalf("seen=%d consumed=%d, want 1 complete batch of %d bytes", seen, consumed, len(b1))
	}
	// With the full buffer both batches scan.
	seen = 0
	consumed, err = Scan(joined, func(b Batch) error { seen++; return nil })
	if err != nil || seen != 2 || consumed != len(joined) {
		t.Fatalf("full scan: seen=%d consumed=%d err=%v", seen, consumed, err)
	}
}

func TestTimestampMustNotRegress(t *testing.T) {
	b := NewBuilder(1)
	b.Append(Record{Value: []byte("a"), Timestamp: 100})
	if err := b.Append(Record{Value: []byte("b"), Timestamp: 50}); err == nil {
		t.Fatal("regressing timestamp accepted")
	}
}

// quickRecords generates a random record set for property tests.
func quickRecords(r *rand.Rand) []Record {
	n := 1 + r.Intn(20)
	base := r.Int63n(1 << 40)
	recs := make([]Record, n)
	for i := range recs {
		var key []byte
		if r.Intn(3) > 0 {
			key = make([]byte, r.Intn(64))
			r.Read(key)
		}
		val := make([]byte, r.Intn(1024))
		r.Read(val)
		recs[i] = Record{Key: key, Value: val, Timestamp: base + int64(i*r.Intn(1000))}
	}
	return recs
}

func TestPropertyRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	property := func(seed int64, baseOffset int64) bool {
		r := rand.New(rand.NewSource(seed))
		if baseOffset < 0 {
			baseOffset = -baseOffset
		}
		in := quickRecords(r)
		buf, err := Encode(42, in...)
		if err != nil {
			return false
		}
		batch, n, err := Parse(buf)
		if err != nil || n != len(buf) {
			return false
		}
		batch.SetBaseOffset(baseOffset)
		if batch.Validate() != nil {
			return false
		}
		out, err := batch.Records()
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			want := in[i]
			got := out[i]
			if !bytes.Equal(normalize(want.Key), normalize(got.Key)) && !(want.Key == nil && got.Key == nil) {
				return false
			}
			if (want.Key == nil) != (got.Key == nil) {
				return false
			}
			if !bytes.Equal(want.Value, got.Value) {
				return false
			}
			if got.Timestamp != want.Timestamp || got.Offset != baseOffset+int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func normalize(b []byte) []byte {
	if b == nil {
		return []byte{}
	}
	return b
}

func TestPropertyRandomBytesNeverPanicAndRarelyValidate(t *testing.T) {
	property := func(data []byte) bool {
		batch, _, err := Parse(data)
		if err != nil {
			return true
		}
		// Parsing may succeed structurally; validation must be safe to call.
		_ = batch.Validate()
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyScanConsumesExactlyWholeBatches(t *testing.T) {
	property := func(seed int64, cut uint16) bool {
		r := rand.New(rand.NewSource(seed))
		var joined []byte
		var sizes []int
		for i := 0; i < 1+r.Intn(5); i++ {
			buf, err := Encode(int64(i), quickRecords(r)...)
			if err != nil {
				return false
			}
			joined = append(joined, buf...)
			sizes = append(sizes, len(buf))
		}
		limit := int(cut) % (len(joined) + 1)
		consumed, err := Scan(joined[:limit], func(Batch) error { return nil })
		if err != nil {
			return false
		}
		// consumed must be the largest prefix sum of sizes ≤ limit.
		want := 0
		for _, s := range sizes {
			if want+s > limit {
				break
			}
			want += s
		}
		return consumed == want
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// reseal recomputes a batch's CRC after a test edits covered bytes, so the
// structural checks behind the CRC are what rejects the batch.
func reseal(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[13:], crc32.Checksum(buf[17:], castagnoli))
	return buf
}

func TestValidateStructuralChecks(t *testing.T) {
	good := mustEncode(t, 1,
		Record{Value: []byte("a"), Timestamp: 1},
		Record{Value: []byte("b"), Timestamp: 2},
	)
	cases := []struct {
		name string
		edit func([]byte) []byte
		want error
	}{
		{"crc", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }, ErrBadCRC},
		{"empty", func(b []byte) []byte {
			b = b[:HeaderSize]
			binary.LittleEndian.PutUint32(b[8:], HeaderSize)
			binary.LittleEndian.PutUint32(b[18:], 0)
			return reseal(b)
		}, ErrEmptyBatch},
		{"count", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[18:], 3); return reseal(b) }, ErrCorrupt},
		{"short record", func(b []byte) []byte { b[HeaderSize] = 0x7f; return reseal(b) }, ErrShortRecord},
	}
	for _, tc := range cases {
		batch, _, err := Parse(tc.edit(append([]byte(nil), good...)))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		if err := batch.Validate(); err != tc.want {
			t.Errorf("%s: Validate = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestAppendRecordsAppendsAndRestoresDstOnError(t *testing.T) {
	buf := mustEncode(t, 1,
		Record{Key: []byte("k"), Value: []byte("a"), Timestamp: 5},
		Record{Value: []byte("b"), Timestamp: 6},
	)
	batch, _, _ := Parse(buf)
	batch.SetBaseOffset(10)
	prior := Record{Value: []byte("prior"), Offset: 3}
	dst, err := batch.AppendRecords([]Record{prior})
	if err != nil {
		t.Fatal(err)
	}
	if len(dst) != 3 || string(dst[0].Value) != "prior" || string(dst[1].Key) != "k" ||
		string(dst[2].Value) != "b" || dst[1].Offset != 10 || dst[2].Offset != 11 || dst[2].Timestamp != 6 {
		t.Fatalf("AppendRecords = %+v", dst)
	}

	// A record whose length prefix overruns the batch fails the walk
	// midway; the caller's slice comes back at its original length.
	bad := append([]byte(nil), buf...)
	first := HeaderSize + 1 + int(bad[HeaderSize])
	bad[first] = 0x7f
	batch, _, _ = Parse(bad)
	dst, err = batch.AppendRecords([]Record{prior})
	if err != ErrShortRecord || len(dst) != 1 || string(dst[0].Value) != "prior" {
		t.Fatalf("AppendRecords on a bad batch = %d records, %v", len(dst), err)
	}
	if recs, err := batch.Records(); recs != nil || err != ErrShortRecord {
		t.Fatalf("Records on a bad batch = %v, %v", recs, err)
	}
}

func TestBuildReusesBuilder(t *testing.T) {
	b := NewBuilder(9)
	if _, err := b.Build([]Record{{Value: []byte("one"), Timestamp: 1}, {Value: []byte("two"), Timestamp: 1}}); err != nil {
		t.Fatal(err)
	}
	buf, err := b.Build([]Record{{Value: []byte("three"), Timestamp: 4}})
	if err != nil {
		t.Fatal(err)
	}
	want := mustEncode(t, 9, Record{Value: []byte("three"), Timestamp: 4})
	if !bytes.Equal(buf, want) {
		t.Fatalf("second Build differs from Encode:\n got %x\nwant %x", buf, want)
	}
}

// The validate/decode steps of the record path are allocation-free: brokers
// validate every produced batch and consumers validate and decode every
// fetched one into a reused slice.
func TestValidateAndAppendRecordsAllocFree(t *testing.T) {
	recs := make([]Record, 8)
	for i := range recs {
		recs[i] = Record{Key: []byte("key"), Value: bytes.Repeat([]byte{byte(i)}, 100), Timestamp: int64(i)}
	}
	batch, _, err := Parse(mustEncode(t, 1, recs...))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if batch.Validate() != nil {
			t.Fatal("validate failed")
		}
	}); n != 0 {
		t.Fatalf("Validate: %v allocs/op, want 0", n)
	}
	dst := make([]Record, 0, len(recs))
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if dst, err = batch.AppendRecords(dst[:0]); err != nil || len(dst) != len(recs) {
			t.Fatal("decode failed")
		}
	}); n != 0 {
		t.Fatalf("AppendRecords: %v allocs/op, want 0", n)
	}
}
