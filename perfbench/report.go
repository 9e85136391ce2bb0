package main

import (
	"fmt"
	"math"
)

// metricSet collects metrics in report order and prints each as it is added.
type metricSet map[string]metric

func (m metricSet) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a failed rep measured nothing; the failure is in the result
	}
	m[name] = metric{Value: v, Unit: unit}
	fmt.Printf("%-28s %16.6g %s\n", name, v, unit)
}

// endToEnd reduces the measured reps to the end-to-end metrics: medians over
// reps, chunk percentiles over the pooled chunk samples. Host times are
// scaled by each rep's calibration loop (calib.go).
func (b *bench) endToEnd(reps []*repResult) map[string]metric {
	m := metricSet{}
	fmt.Printf("# %s: %d measured reps, %d ops per rep\n", b.w.name, len(reps), reps[0].planned)
	var chunks []float64
	for _, r := range reps {
		chunks = append(chunks, r.chunks...)
	}
	d := reps[0].digest
	calib := median(collect(reps, func(r *repResult) float64 { return r.calib.Seconds() * 1e3 }))
	fmt.Printf("#   calibration loop median %.3f ms (nominal %v): host times below are scaled by %.3f\n",
		calib, calibNominal, float64(calibNominal)/1e6/calib)
	m.add("setup_s", "s", median(collect(reps, func(r *repResult) float64 { return r.setupS })))
	m.add("run_s", "s", median(collect(reps, func(r *repResult) float64 { return r.runS })))
	m.add("ops_per_s", "1/s", median(collect(reps, func(r *repResult) float64 { return float64(r.ops) / r.runS })))
	m.add("events_per_s", "1/s", median(collect(reps, func(r *repResult) float64 { return float64(r.events) / r.runS })))
	m.add("chunk_ms_p50", "ms", quantile(chunks, 0.50))
	m.add("chunk_ms_p99", "ms", quantile(chunks, 0.99))
	fmt.Printf("#   chunk samples %d (%d ops each), %d beyond p99\n", len(chunks), reps[0].planned/int64(b.w.chunks), beyond(chunks, 0.99))
	m.add("allocs_per_op", "count", median(collect(reps, func(r *repResult) float64 { return float64(r.allocs) / float64(r.ops) })))
	m.add("alloc_bytes_per_op", "B", median(collect(reps, func(r *repResult) float64 { return float64(r.bytes) / float64(r.ops) })))
	m.add("setup_alloc_mb", "MB", median(collect(reps, func(r *repResult) float64 { return float64(r.setupAllocBytes) / 1e6 })))
	m.add("live_heap_mb", "MB", median(collect(reps, func(r *repResult) float64 { return float64(r.liveHeap) / 1e6 })))
	m.add("sim_p50_us", "us", float64(d.P50ns)/1e3)
	m.add("sim_p99_us", "us", float64(d.P99ns)/1e3)
	return m
}
