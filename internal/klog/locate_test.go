package klog

import (
	"math/rand"
	"testing"
)

// refLocate is the original linear-scan Locate, kept as the reference model
// for the binary-searched one.
func refLocate(l *Log, offset int64) (*Segment, int, error) {
	if offset < 0 || offset >= l.nextOffset {
		return nil, 0, ErrOutOfRange
	}
	var seg *Segment
	for _, s := range l.segments {
		if s.baseOffset <= offset {
			seg = s
		} else {
			break
		}
	}
	if seg == nil {
		return nil, 0, ErrOutOfRange
	}
	for _, e := range seg.index {
		if offset < e.nextOffset {
			return seg, e.startPos, nil
		}
	}
	return nil, 0, ErrOutOfRange
}

// refReadUpTo is the original readUpTo: a full index scan skipping entries
// before the located batch, then a second scan for a lone oversized batch.
func refReadUpTo(l *Log, offset int64, maxBytes int, limit int64) ([]byte, error) {
	if offset >= limit {
		if offset > l.nextOffset {
			return nil, ErrOutOfRange
		}
		return nil, nil
	}
	seg, start, err := refLocate(l, offset)
	if err != nil {
		return nil, err
	}
	end := start
	for _, e := range seg.index {
		if e.startPos < start || e.nextOffset > limit {
			continue
		}
		if e.endPos-start > maxBytes && end > start {
			break
		}
		end = e.endPos
		if end-start >= maxBytes {
			break
		}
	}
	if end == start {
		for _, e := range seg.index {
			if e.startPos == start && e.nextOffset <= limit {
				end = e.endPos
				break
			}
		}
	}
	if end == start {
		return nil, nil
	}
	return seg.buf[start:end], nil
}

// sameView reports whether two reads returned the same view of the log: the
// same length over the same backing bytes.
func sameView(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// TestLocateAndReadMatchLinearScan drives a log through random appends,
// segment rolls, high-watermark advances and truncations, and checks every
// lookup against the linear-scan reference model.
func TestLocateAndReadMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []string{"a", "bb", "0123456789abcdef", string(make([]byte, 200))}
	for trial := 0; trial < 20; trial++ {
		// Small segments: a handful of batches each, so rolls are frequent.
		l := New(Config{SegmentSize: 1024})
		// bounds holds every batch boundary offset, for HW and truncation
		// targets.
		bounds := []int64{0}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				recs := make([]string, 1+rng.Intn(3))
				for i := range recs {
					recs[i] = vals[rng.Intn(len(vals))]
				}
				if _, _, err := l.Append(batchOf(t, recs...)); err != nil {
					t.Fatal(err)
				}
				bounds = append(bounds, l.NextOffset())
			case op < 7:
				var above []int64
				for _, b := range bounds {
					if b >= l.HighWatermark() {
						above = append(above, b)
					}
				}
				l.AdvanceHW(above[rng.Intn(len(above))])
			case op < 8:
				hw := l.HighWatermark()
				if _, err := l.TruncateTo(hw); err != nil {
					t.Fatalf("TruncateTo(%d): %v", hw, err)
				}
				for len(bounds) > 0 && bounds[len(bounds)-1] > hw {
					bounds = bounds[:len(bounds)-1]
				}
			}
			for probe := 0; probe < 8; probe++ {
				off := rng.Int63n(l.NextOffset()+3) - 1 // -1 .. LEO+1
				maxBytes := rng.Intn(400)
				if probe == 0 {
					maxBytes = 1 // smaller than any batch
				}
				seg, pos, err := l.Locate(off)
				rseg, rpos, rerr := refLocate(l, off)
				if seg != rseg || pos != rpos || err != rerr {
					t.Fatalf("Locate(%d) = %v,%d,%v; reference %v,%d,%v", off, seg, pos, err, rseg, rpos, rerr)
				}
				got, err := l.ReadCommitted(off, maxBytes)
				want, werr := refReadUpTo(l, off, maxBytes, l.HighWatermark())
				if !sameView(got, want) || err != werr {
					t.Fatalf("ReadCommitted(%d, %d) = %d bytes,%v; reference %d bytes,%v",
						off, maxBytes, len(got), err, len(want), werr)
				}
				got, err = l.ReadUncommitted(off, maxBytes)
				want, werr = refReadUpTo(l, off, maxBytes, l.NextOffset())
				if !sameView(got, want) || err != werr {
					t.Fatalf("ReadUncommitted(%d, %d) = %d bytes,%v; reference %d bytes,%v",
						off, maxBytes, len(got), err, len(want), werr)
				}
			}
		}
		if l.NumSegments() < 3 {
			t.Fatalf("trial %d: only %d segments; the test needs rolls", trial, l.NumSegments())
		}
		l.Release()
	}
}

// TestLookupsAllocFree pins the fetch path's offset lookups at 0 allocs/op:
// they run once per fetch request on every broker.
func TestLookupsAllocFree(t *testing.T) {
	l := New(Config{SegmentSize: 1024})
	for i := 0; i < 200; i++ {
		if _, _, err := l.Append(batchOf(t, "alloc", "free")); err != nil {
			t.Fatal(err)
		}
	}
	l.AdvanceHW(l.NextOffset())
	off := l.NextOffset() / 2
	if n := testing.AllocsPerRun(100, func() { l.Locate(off) }); n != 0 {
		t.Errorf("Locate: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { l.ReadCommitted(off, 512) }); n != 0 {
		t.Errorf("ReadCommitted: %.1f allocs/op, want 0", n)
	}
}
