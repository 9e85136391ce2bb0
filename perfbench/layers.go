package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"kafkadirect/internal/obs"
)

// perLayer reduces a traced run to the per-layer metrics: CPU shares from
// the measured phases' profiles, work counts from the obs registry and the
// benchmark's own counters, then the layer ladder. plain are untraced reps
// of the same inputs, for the tracing overhead.
func (b *bench) perLayer(plain, traced []*repResult, out string, seed int64) map[string]metric {
	m := metricSet{}
	fmt.Printf("# %s: %d untraced + %d traced reps, %d ops per rep\n", b.w.name, len(plain), len(traced), traced[0].planned)

	cpu := newCPUSplit()
	var ops, events, gcCycles, polls, useful int64
	var pendingMax int
	var peakHeap uint64
	var lagMax, busyDen float64
	counters := map[string]uint64{}
	var queueWait obs.HistSnapshot
	for i, r := range traced {
		if err := cpu.add(r.profile); err != nil {
			b.mismatch(r, fmt.Sprintf("rep %d: %v", i, err))
		}
		dir := filepath.Join(out, b.w.name)
		artifact(dir, fmt.Sprintf("seed%d-rep%d.cpu.pprof", seed, i), r.profile)
		if i == 0 {
			var buf bytes.Buffer
			if err := r.traceSet.WriteChromeTrace(&buf); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
			} else {
				artifact(dir, fmt.Sprintf("seed%d-rep%d.trace.json", seed, i), buf.Bytes())
			}
		}
		ops += r.ops
		events += int64(r.events)
		gcCycles += int64(r.gcCycles)
		polls += r.polls
		useful += r.usefulPolls
		pendingMax = max(pendingMax, r.pendingMax)
		peakHeap = max(peakHeap, r.peakHeap)
		lagMax = max(lagMax, float64(r.lagMax)/1e3)
		busyDen += float64(r.simNs) * float64(r.nodes)
		for name, v := range r.obsDelta.Counters {
			counters[name] += v
		}
		h := r.obsDelta.Hists["stage/broker_queue_wait"]
		queueWait.Count += h.Count
		for j, n := range h.Buckets {
			queueWait.Buckets[j] += n
		}
		queueWait.Max = max(queueWait.Max, h.Max)
	}
	perOp := func(name string) float64 { return float64(counters[name]) / float64(ops) }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	fmt.Printf("# CPU split of the measured phase: %d profile samples\n", cpu.total)
	for _, l := range layers {
		name := l + ".cpu_frac"
		if l == "rt.sched" || l == "rt.gc" || l == "rt.other" {
			name = l + "_frac"
		}
		m.add(name, "frac", cpu.frac(cpu.byLayer[l]))
	}
	m.add("rt.memclr_frac", "frac", cpu.frac(cpu.memclr))
	m.add("rt.memmove_frac", "frac", cpu.frac(cpu.memmove))
	m.add("rt.malloc_frac", "frac", cpu.frac(cpu.malloc))

	m.add("sim.events_per_op", "count", ratio(events, ops))
	m.add("sim.pending_max", "count", float64(pendingMax))
	m.add("rt.gc_cycles_per_kop", "count", ratio(gcCycles*1000, ops))
	m.add("rt.peak_heap_mb", "MB", float64(peakHeap)/1e6)
	m.add("tcpnet.msgs_per_op", "count", perOp("tcp/msgs"))
	m.add("tcpnet.copy_bytes_per_op", "B", perOp("tcp/kernel_copy_bytes"))
	m.add("rdma.wr_per_op", "count", perOp("rdma/wr_posted"))
	m.add("rdma.cqe_per_op", "count", perOp("rdma/cqes"))
	m.add("fabric.msgs_per_op", "count", perOp("fabric/msgs"))
	m.add("fabric.bytes_per_op", "B", perOp("fabric/bytes"))
	busy := 0.0
	if busyDen > 0 {
		busy = float64(counters["fabric/tx_busy_ns"]) / busyDen
	}
	m.add("fabric.link_busy_frac", "frac", busy)
	m.add("broker.requests_per_op", "count", perOp("broker/requests"))
	m.add("broker.queue_wait_p99_us", "us", float64(histQuantile(queueWait, 0.99))/1e3)
	m.add("broker.empty_fetch_frac", "frac", ratio(int64(counters["broker/empty_fetches"]), int64(counters["broker/requests"])))
	m.add("client.useful_poll_frac", "frac", ratio(useful, polls))
	m.add("client.retries", "count", float64(counters["client/retries"]))
	m.add("gen.lag_max_us", "us", lagMax)
	tracedRun := median(collect(traced, func(r *repResult) float64 { return r.runS }))
	plainRun := median(collect(plain, func(r *repResult) float64 { return r.runS }))
	m.add("trace.overhead_frac", "frac", tracedRun/plainRun-1)
	m.add("host.calib_ms", "ms", median(collect(traced, func(r *repResult) float64 { return r.calib.Seconds() * 1e3 })))

	fmt.Println("# layer ladder: host ns per op, median of", ladderRuns, "runs")
	runLadder(m)
	return m
}

// histQuantile is the q-quantile of an obs histogram snapshot: the upper
// bound of the log2 bucket holding that rank, capped at the maximum.
func histQuantile(h obs.HistSnapshot, q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.Count))
	if rank >= h.Count {
		rank = h.Count - 1
	}
	var seen uint64
	for i, n := range h.Buckets {
		seen += n
		if seen > rank {
			if i == 0 {
				return 0
			}
			return min(uint64(1)<<uint(i)-1, h.Max)
		}
	}
	return h.Max
}
