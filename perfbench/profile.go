package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU attribution reads the gzipped profile.proto that runtime/pprof
// writes, with a minimal protobuf decoder (the module is stdlib-only), and
// charges each sample to a layer:
//
//   - the innermost frame of a kafkadirect/internal/<module> package, so
//     runtime work (malloc, memclr, channel handoff) done on behalf of a
//     layer belongs to that layer;
//   - "gen" when the innermost repository frame is the benchmark's own code
//     (package main): the generator, checker and measurement harness;
//   - otherwise a runtime bucket: rt.gc (collector goroutines), rt.sched
//     (the scheduler running on its own stack: goroutine handoff) or
//     rt.other.
//
// Frames of other repository packages are skipped; the workloads do not
// reach them. Independently of the owner, the leaf frame splits runtime
// self time into memclr, memmove and malloc.

// layers lists the attribution buckets in report order; they sum to 1.
var layers = []string{
	"sim", "bufpool", "kwire", "tcpnet", "rdma", "fabric", "krecord", "klog",
	"core", "client", "obs", "gen", "rt.sched", "rt.gc", "rt.other",
}

// cpuSplit accumulates profile samples by bucket.
type cpuSplit struct {
	total   int64
	byLayer map[string]int64
	memclr  int64
	memmove int64
	malloc  int64
}

func newCPUSplit() *cpuSplit { return &cpuSplit{byLayer: map[string]int64{}} }

func (c *cpuSplit) frac(n int64) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(n) / float64(c.total)
}

// add decodes one profile and charges its samples.
func (c *cpuSplit) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			stack = append(stack, p.locFuncs[loc]...)
		}
		c.charge(stack, s.count)
	}
	return nil
}

// charge attributes count samples with the given stack (leaf first).
func (c *cpuSplit) charge(stack []string, count int64) {
	c.total += count
	c.byLayer[owner(stack)] += count
	if len(stack) == 0 {
		return
	}
	switch leaf := stack[0]; {
	case strings.HasPrefix(leaf, "runtime.memclrNoHeapPointers"):
		c.memclr += count
	case leaf == "runtime.memmove":
		c.memmove += count
	case underMalloc(stack):
		c.malloc += count
	}
}

const repoPrefix = "kafkadirect/internal/"

// owner returns the bucket a stack (leaf first) is charged to.
func owner(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "gen"
		}
		if mod, ok := strings.CutPrefix(fn, repoPrefix); ok {
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			for _, l := range layers {
				if l == mod {
					return mod
				}
			}
		}
	}
	for _, fn := range stack {
		for _, p := range gcFrames {
			if strings.HasPrefix(fn, p) {
				return "rt.gc"
			}
		}
	}
	for _, fn := range stack {
		for _, p := range schedFrames {
			if fn == p {
				return "rt.sched"
			}
		}
	}
	return "rt.other"
}

var gcFrames = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"}

var schedFrames = []string{
	"runtime.mcall", "runtime.schedule", "runtime.findRunnable", "runtime.park_m",
	"runtime.goexit0", "runtime.mstart", "runtime.sysmon", "runtime.stopm",
	"runtime.startm", "runtime.wakep", "runtime.execute", "runtime.gosched_m",
}

// underMalloc reports whether the stack is inside the allocator (and not in
// a GC assist the allocation triggered).
func underMalloc(stack []string) bool {
	in := false
	for _, fn := range stack {
		if fn == "runtime.gcAssistAlloc" {
			return false
		}
		if strings.HasPrefix(fn, "runtime.mallocgc") {
			in = true
		}
	}
	return in
}

// ---------------------------------------------------------------------------
// profile.proto decoding
// ---------------------------------------------------------------------------

type profSample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

var errProto = errors.New("profile: malformed protobuf")

// field is one decoded protobuf field: v for varints, b for length-delimited.
type field struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

// fields decodes a protobuf message's top-level fields.
func fields(buf []byte) ([]field, error) {
	var out []field
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return nil, errProto
		}
		buf = buf[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = uvarint(buf)
			if n <= 0 {
				return nil, errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return nil, errProto
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return nil, errProto
			}
			f.b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return nil, errProto
			}
			buf = buf[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(buf []byte) (uint64, int) {
	var x uint64
	for i, b := range buf {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// varints returns a repeated integer field's values, packed or not.
func varints(f field) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for buf := f.b; len(buf) > 0; {
		v, n := uvarint(buf)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, v)
		buf = buf[n:]
	}
	return out, nil
}

func parseProfile(raw []byte) (*profile, error) {
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locLines := map[uint64][]uint64{}
	p := &profile{locFuncs: map[uint64][]string{}}
	for _, f := range top {
		switch f.num {
		case 2: // sample
			sf, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var s profSample
			for _, g := range sf {
				vs, err := varints(g)
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					if s.count == 0 && len(vs) > 0 {
						s.count = int64(vs[0]) // value[0]: samples/count
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			lf, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range lf {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					ln, err := fields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range ln {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // function
			ff, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range ff {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
	}
	for loc, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, fn := range fns {
			if i := funcName[fn]; i < uint64(len(strs)) {
				names = append(names, strs[i])
			}
		}
		p.locFuncs[loc] = names
	}
	return p, nil
}
