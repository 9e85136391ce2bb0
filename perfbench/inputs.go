package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strconv"
	"time"

	"kafkadirect/internal/krecord"
)

// The generator derives every input from the benchmark seed with integer
// arithmetic only, so a seed yields the same bytes on every machine. A record
// is identified by (stream, seq): a stream is one producer, seq counts its
// records from 0. Both are carried in the record key, which lets a consumer
// regenerate the expected value and check it byte for byte.

// arenaSize bounds the distinct bytes values are cut from; values are
// windows into a seeded random arena, so generating one costs no copy.
const arenaSize = 1 << 20

// inputs is everything one workload run feeds the program for one seed.
type inputs struct {
	seed  int64
	arena []byte
	// due holds each iot-stream publisher's send schedule (sim time, sorted).
	due [][]time.Duration
}

func newInputs(w *workload, seed int64) *inputs {
	in := &inputs{seed: seed, arena: make([]byte, arenaSize)}
	rng := rand.New(rand.NewSource(seed))
	rng.Read(in.arena)
	if w.schedule != nil {
		in.due = w.schedule(in)
	}
	return in
}

// mix is splitmix64's finaliser: a cheap, well-distributed 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash returns the seeded hash of (stream, seq, salt).
func (in *inputs) hash(stream, seq int, salt uint64) uint64 {
	return mix(uint64(in.seed)*0x100000001b3 ^ uint64(stream)<<40 ^ uint64(seq)<<8 ^ salt)
}

// valueSize draws the size of (stream, seq)'s value log-uniformly from
// [lo, hi), lo and hi powers of two: an octave, then a uniform size within
// it. The octaves are stratified — each block of consecutive records of a
// stream takes every octave once, in a seeded order — so the volume a rep
// writes hardly varies with the seed.
func (in *inputs) valueSize(stream, seq, lo, hi int) int {
	var perm [8]int
	octaves := 0
	for v := lo; v < hi && octaves < len(perm); v <<= 1 {
		perm[octaves] = octaves
		octaves++
	}
	h := in.hash(stream, seq/octaves, 5)
	for i := octaves - 1; i > 0; i-- {
		j := int(h % uint64(i+1))
		h /= uint64(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	base := lo << perm[seq%octaves]
	return base + int(in.hash(stream, seq, 1)%uint64(base))
}

// value returns the record value of (stream, seq): a window of the arena.
func (in *inputs) value(stream, seq, lo, hi int) []byte {
	n := in.valueSize(stream, seq, lo, hi)
	off := int((in.hash(stream, seq, 6) >> 8) % uint64(arenaSize-n))
	return in.arena[off : off+n]
}

// putKey encodes (stream, seq) into an 8-byte key.
func putKey(dst []byte, stream, seq int) []byte {
	binary.BigEndian.PutUint64(dst[:8], uint64(stream)<<32|uint64(uint32(seq)))
	return dst[:8]
}

// parseKey decodes a key written by putKey.
func parseKey(key []byte) (stream, seq int, ok bool) {
	if len(key) != 8 {
		return 0, 0, false
	}
	v := binary.BigEndian.Uint64(key)
	return int(v >> 32), int(uint32(v)), true
}

// event appends the iot-stream JSON event of (stream, seq) to dst. Events
// are 120-180 bytes; the engines compare them byte for byte and never
// parse them.
func (in *inputs) event(dst []byte, stream, seq int) []byte {
	h := in.hash(stream, seq, 2)
	due := in.due[stream][seq]
	dst = append(dst, `{"ts":`...)
	dst = strconv.AppendInt(dst, int64(due), 10)
	dst = append(dst, `,"sensor":`...)
	dst = strconv.AppendInt(dst, int64(stream), 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendInt(dst, int64(seq), 10)
	dst = append(dst, `,"lane":`...)
	dst = strconv.AppendInt(dst, int64(h%4), 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64((h>>8)%60), 10)
	dst = append(dst, `,"speed":`...)
	speed := 300 + (h>>16)%900
	dst = strconv.AppendInt(dst, int64(speed/10), 10)
	dst = append(dst, '.')
	dst = strconv.AppendInt(dst, int64(speed%10), 10)
	dst = append(dst, `,"pad":"`...)
	target := len(dst) + 2 + 40 + int((h>>32)%60)
	for len(dst) < target-2 {
		dst = append(dst, 'x')
	}
	return append(dst, `"}`...)
}

// checker verifies what one consumer receives: dense offsets, per-stream
// sequence order, and exact bytes. The record's CRC was validated by the
// consumer's Poll before it returned the record.
type checker struct {
	in      *inputs
	next    int64       // next expected offset
	seqs    map[int]int // next expected seq per stream
	scratch []byte
	lo, hi  int  // value size range (value workloads)
	events  bool // values are iot-stream events
}

func newChecker(in *inputs, lo, hi int, events bool) *checker {
	return &checker{in: in, seqs: map[int]int{}, lo: lo, hi: hi, events: events}
}

// check verifies one record and returns its stream and seq; ok is false on
// any mismatch.
func (c *checker) check(rec krecord.Record) (stream, seq int, ok bool) {
	if rec.Offset != c.next {
		return 0, 0, false
	}
	c.next++
	stream, seq, ok = parseKey(rec.Key)
	if !ok || seq != c.seqs[stream] {
		return stream, seq, false
	}
	c.seqs[stream] = seq + 1
	var want []byte
	if c.events {
		if stream >= len(c.in.due) || seq >= len(c.in.due[stream]) {
			return stream, seq, false
		}
		c.scratch = c.in.event(c.scratch[:0], stream, seq)
		want = c.scratch
	} else {
		want = c.in.value(stream, seq, c.lo, c.hi)
	}
	return stream, seq, bytes.Equal(rec.Value, want)
}
