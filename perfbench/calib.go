package main

import (
	"hash/crc32"
	"time"
)

// On a shared host — the 2-vCPU Xeon of README.md's machine record — other
// tenants slow every CPU-bound loop by 20–40% for minutes at a time, and a
// 30-second run cannot average that out. So each rep is bracketed by a
// calibration loop: fixed work made of the operations the simulator's host
// cost is built from (goroutine handoffs over channels, small allocations,
// memmove, CRC, map updates), written against the standard library only,
// so no change to the program can change it. Host times are reported
// scaled to the speed at which the loop takes calibNominal: raw seconds ×
// calibNominal / (the loop's time around the rep). On that host rep and
// loop times correlated at 0.83 over 120 reps, and scaling cut the reps'
// coefficient of variation from 12% to 7%.

// calibNominal is the calibration loop's time on that host when it is
// quiet; it only sets the unit of the scaled times.
const calibNominal = 16 * time.Millisecond

var calibSink []byte

// calibrate runs the calibration loop once and returns its host time.
func calibrate() time.Duration {
	start := time.Now()
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	for i := 0; i < 20000; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong // the echo goroutine has exited
	buf := make([]byte, 64<<10)
	var sum uint32
	for i := 0; i < 4000; i++ {
		b := make([]byte, 512+i%1024)
		copy(buf[(i%32)<<10:], b)
		sum ^= crc32.ChecksumIEEE(buf[:4096])
		calibSink = b
	}
	m := make(map[int]int)
	for i := 0; i < 50000; i++ {
		m[i%4096] += i + int(sum&1)
	}
	return time.Since(start)
}
