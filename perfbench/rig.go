package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"kafkadirect/internal/client"
	"kafkadirect/internal/core"
	"kafkadirect/internal/krecord"
	"kafkadirect/internal/obs"
	"kafkadirect/internal/sim"
)

// A rep is one complete simulation of a workload: build the cluster and
// connect every client (setup), then run the fixed traffic mix to completion
// (the measured phase), then check the logs and tear down. Host time is read
// only at the phase boundaries and at chunk boundaries, from inside the
// simulation processes; nothing the benchmark does schedules a sim event, so
// the simulated outcome is identical whether or not it is traced.

// repResult is what one rep measured.
type repResult struct {
	// Host times, scaled by the calibration loop (calib.go).
	setupS, runS    float64
	calib           time.Duration // calibration loop's time around this rep
	setupAllocBytes uint64
	allocs, bytes   uint64 // measured phase
	gcCycles        uint64 // measured phase
	liveHeap        uint64
	peakHeap        uint64
	events          uint64 // sim events in the measured phase

	planned, ops, failed int64
	chunks               []float64 // scaled host ms per chunk of ops
	digest               digest
	failures             []string

	// Per-layer observations.
	simNs       int64 // measured phase, sim time
	pendingMax  int
	polls       int64
	usefulPolls int64
	lagMax      time.Duration
	nodes       int
	obsDelta    obs.Snapshot
	traceSet    *obs.TraceSet
	profile     []byte
}

// digest is a rep's simulated outcome. It depends only on the program and
// the generated inputs, never on the host.
type digest struct {
	Ops       int64
	SimEvents uint64
	P50ns     int64
	P99ns     int64
}

func (d digest) String() string {
	return fmt.Sprintf("ops=%d sim_events=%d sim_p50_us=%.3f sim_p99_us=%.3f",
		d.Ops, d.SimEvents, float64(d.P50ns)/1e3, float64(d.P99ns)/1e3)
}

// rig holds one rep's simulation and its measurement state.
type rig struct {
	w   *workload
	in  *inputs
	env *sim.Env
	cl  *core.Cluster
	o   *obs.Obs
	res *repResult

	wantProfile, profiling bool
	profBuf                bytes.Buffer

	// Barrier: the measured phase starts once every party has set up.
	parties, arrived, live int
	started, ended         bool
	gate                   sim.Cond
	endpoints              int

	lat       []int64
	chunkOps  int64
	nextChunk int64
	chunkBase int64
	lastChunk time.Time

	t0, t1   time.Time
	m0, m1   memStats
	e1       uint64
	s1       time.Duration
	obsStart obs.Snapshot
	heap     []metrics.Sample
}

// runRep runs one rep. traced enables obs telemetry and profiles the
// measured phase's CPU.
func runRep(w *workload, in *inputs, traced bool) *repResult {
	// Start every rep from the same heap: no garbage and no pooled buffers
	// left by the previous rep (sync.Pool empties over two cycles).
	runtime.GC()
	runtime.GC()
	calib := calibrate()

	res := &repResult{}
	r := &rig{w: w, in: in, res: res, wantProfile: traced,
		heap: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
	r.m0 = readMem()
	r.t0 = time.Now()
	r.env = sim.NewEnv(in.seed)
	opts := core.DefaultOptions()
	if traced {
		r.o = obs.New(obs.DefaultTraceCap)
		opts.Obs = r.o
	}
	w.configure(&opts)
	r.cl = core.NewCluster(r.env, opts)
	w.build(r)
	res.planned = w.planned
	r.chunkOps = w.planned / int64(w.chunks)
	if r.chunkOps < 1 {
		r.chunkOps = 1
	}
	r.nextChunk = r.chunkOps

	r.env.RunUntil(w.simLimit)
	if !r.ended {
		r.failf(0, "measured phase did not finish by sim time %v", w.simLimit)
	}
	if missing := res.planned - res.ops - res.failed; missing > 0 {
		res.failed += missing
	}
	res.liveHeap = liveHeap()
	w.audit(r)
	if traced {
		var ts obs.TraceSet
		ts.Add(w.name, r.o.Trace)
		res.traceSet = &ts
	}
	res.nodes = len(r.cl.Brokers()) + r.endpoints
	r.env.Shutdown()
	r.cl.Release()

	runtime.GC()
	res.calib = (calib + calibrate()) / 2
	scale := float64(calibNominal) / float64(res.calib)
	res.setupS *= scale
	res.runS *= scale
	for i := range res.chunks {
		res.chunks[i] *= scale
	}
	return res
}

// spawn starts one party: a client process that sets up, calls enter, runs
// its share of the traffic and returns. The measured phase ends when every
// party has returned.
func (r *rig) spawn(name string, fn func(p *sim.Proc)) {
	r.parties++
	r.live++
	r.env.Go(name, func(p *sim.Proc) {
		fn(p)
		r.live--
		if r.live == 0 && r.started {
			r.finish()
		}
	})
}

// endpoint attaches a fresh client machine.
func (r *rig) endpoint(cfg client.Config) *client.Endpoint {
	r.endpoints++
	return client.NewEndpoint(r.cl, fmt.Sprintf("client-%d", r.endpoints), cfg)
}

// enter blocks until every party has set up; the last arrival starts the
// measured phase. It returns false if the rep was aborted.
func (r *rig) enter(p *sim.Proc) bool {
	r.arrived++
	if r.arrived == r.parties {
		r.begin()
		r.gate.Broadcast()
	}
	for !r.started && !r.ended {
		r.gate.Wait(p)
	}
	return !r.ended
}

func (r *rig) begin() {
	r.started = true
	r.t1 = time.Now()
	r.m1 = readMem()
	r.res.setupS = r.t1.Sub(r.t0).Seconds()
	r.res.setupAllocBytes = r.m1.bytes - r.m0.bytes
	r.e1 = r.env.Executed()
	r.s1 = r.env.Now()
	r.lastChunk = r.t1
	if r.o != nil {
		r.obsStart = r.o.Reg.Snapshot(r.s1)
	}
	if r.wantProfile {
		if err := pprof.StartCPUProfile(&r.profBuf); err != nil {
			r.failf(0, "start CPU profile: %v", err)
			return
		}
		r.profiling = true
	}
}

// finish ends the measured phase (normally when the last party returns).
func (r *rig) finish() {
	if r.ended {
		return
	}
	r.ended = true
	now := time.Now()
	if r.profiling {
		pprof.StopCPUProfile()
		r.res.profile = r.profBuf.Bytes()
	}
	res := r.res
	if r.started {
		m2 := readMem()
		res.runS = now.Sub(r.t1).Seconds()
		res.allocs = m2.objects - r.m1.objects
		res.bytes = m2.bytes - r.m1.bytes
		res.gcCycles = m2.gcCycles - r.m1.gcCycles
		res.events = r.env.Executed() - r.e1
		res.simNs = int64(r.env.Now() - r.s1)
		if r.o != nil {
			res.obsDelta = r.o.Reg.Snapshot(r.env.Now()).Sub(r.obsStart)
		}
	}
	res.digest = digest{
		Ops:       res.ops,
		SimEvents: r.env.Executed(),
		P50ns:     nearestRank(r.lat, 0.50),
		P99ns:     nearestRank(r.lat, 0.99),
	}
	r.gate.Broadcast()
	r.env.Stop()
}

// op records n completed ops and, at chunk boundaries, the host time the
// chunk took. A poll that completes several ops at once can overshoot a
// boundary; the sample is scaled to a whole chunk.
func (r *rig) op(n int) {
	res := r.res
	res.ops += int64(n)
	if pd := r.env.Pending(); pd > res.pendingMax {
		res.pendingMax = pd
	}
	if res.ops < r.nextChunk {
		return
	}
	now := time.Now()
	done := res.ops - r.chunkBase
	res.chunks = append(res.chunks, float64(now.Sub(r.lastChunk))/1e6*float64(r.chunkOps)/float64(done))
	r.lastChunk = now
	r.chunkBase = res.ops
	r.nextChunk = res.ops + r.chunkOps
	metrics.Read(r.heap)
	if v := r.heap[0].Value.Uint64(); v > res.peakHeap {
		res.peakHeap = v
	}
}

// latency records one simulated op latency.
func (r *rig) latency(d time.Duration) { r.lat = append(r.lat, int64(d)) }

// polled records one consumer Poll and whether it returned records.
func (r *rig) polled(useful bool) {
	r.res.polls++
	if useful {
		r.res.usefulPolls++
	}
}

// failf counts n failed ops and aborts the rep: a wrong or missing record
// would otherwise leave its consumer waiting forever.
func (r *rig) failf(n int64, format string, args ...any) {
	r.res.fail(n, format, args...)
	r.finish()
}

// fail counts n failed ops and keeps the first few reasons.
func (res *repResult) fail(n int64, format string, args ...any) {
	res.failed += n
	if len(res.failures) < 8 {
		res.failures = append(res.failures, fmt.Sprintf(format, args...))
	}
}

// consume verifies a Poll's records against the generator, counting each as
// an op; it reports how many records passed, or -1 after a failure.
func (r *rig) consume(p *sim.Proc, ck *checker, recs []krecord.Record, due func(stream, seq int) time.Duration) int {
	for _, rec := range recs {
		stream, seq, ok := ck.check(rec)
		if !ok {
			r.failf(1, "%s: record at offset %d (stream %d seq %d) does not match the generator", p.Name(), rec.Offset, stream, seq)
			return -1
		}
		if due != nil {
			at := r.s1 + due(stream, seq)
			if rec.Timestamp != int64(due(stream, seq)) {
				r.failf(1, "%s: record %d/%d has timestamp %d, want %d", p.Name(), stream, seq, rec.Timestamp, due(stream, seq))
				return -1
			}
			r.latency(p.Now() - at)
		}
		r.op(1)
	}
	return len(recs)
}

// memStats are the runtime counters a rep reads at phase boundaries.
type memStats struct {
	objects, bytes, gcCycles uint64
}

var memNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readMem() memStats {
	s := make([]metrics.Sample, len(memNames))
	for i, n := range memNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return memStats{
		objects:  s[0].Value.Uint64() + s[1].Value.Uint64(),
		bytes:    s[2].Value.Uint64(),
		gcCycles: s[3].Value.Uint64(),
	}
}

// liveHeap returns the bytes of live heap objects after forced collections:
// two, so buffers parked in sync.Pool (bufpool) do not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
