package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// explode is a named panic site, so tests can look for it in the stack the
// kernel attaches to a re-raised process panic.
func explode() { panic("boom") }

// recoverString runs fn and returns the string it panicked with ("" if it
// returned normally).
func recoverString(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			s, ok := r.(string)
			if !ok {
				t.Fatalf("panic value %T(%v), want string", r, r)
			}
			msg = s
		}
	}()
	fn()
	return ""
}

// checkProcPanic asserts msg is the kernel's re-raise of explode() inside
// the process named name.
func checkProcPanic(t *testing.T, msg, name string) {
	t.Helper()
	if msg == "" {
		t.Fatal("run returned normally; want the process panic re-raised")
	}
	for _, want := range []string{fmt.Sprintf("process %q panicked: boom", name), "sim.explode"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("panic message lacks %q:\n%s", want, msg)
		}
	}
}

// runGoexits reports whether run ended in runtime.Goexit rather than
// returning or panicking.
func runGoexits(run func()) bool {
	done := make(chan bool)
	go func() {
		goexit := true
		defer func() {
			if recover() != nil {
				goexit = false
			}
			done <- goexit
		}()
		run()
		goexit = false
	}()
	return <-done
}

func TestProcPanicReachesRunCaller(t *testing.T) {
	e := NewEnv(1)
	e.Go("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	bad := e.Go("bad", func(p *Proc) {
		p.Sleep(time.Millisecond)
		explode()
	})
	checkProcPanic(t, recoverString(t, e.Run), "bad")
	if !bad.dead || e.Live() != 1 {
		t.Fatalf("after panic: bad.dead=%v live=%d, want true/1", bad.dead, e.Live())
	}
	if e.Now() != time.Millisecond {
		t.Fatalf("clock %v at panic, want 1ms", e.Now())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("live = %d after Shutdown", e.Live())
	}
}

func TestProcGoexitReachesRunCaller(t *testing.T) {
	e := NewEnv(1)
	e.Go("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	e.Go("fatal", func(p *Proc) {
		p.Sleep(time.Millisecond)
		runtime.Goexit() // what t.Fatal does inside a simulation process
	})
	if !runGoexits(e.Run) {
		t.Fatal("Run did not Goexit after a process called runtime.Goexit")
	}
	if e.Live() != 1 {
		t.Fatalf("live = %d after Goexit, want 1 (the bystander)", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("live = %d after Shutdown", e.Live())
	}
}

// faultyGroup builds a 4-shard group whose every shard ticks a sleeper each
// microsecond, so windows run on several workers at once, plus one process
// on shard 2 that calls fault at 5µs.
func faultyGroup(parallel int, fault func()) *ShardGroup {
	g := NewShardGroup(4, 10*time.Microsecond, 1)
	g.SetParallel(parallel)
	for s := 0; s < 4; s++ {
		g.Shard(s).Go(fmt.Sprintf("ticker-%d", s), func(p *Proc) {
			for {
				p.Sleep(time.Microsecond)
			}
		})
	}
	g.Shard(2).Go("bad", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		fault()
	})
	return g
}

func TestShardGroupWorkerPanicReachesRunCaller(t *testing.T) {
	for _, par := range []int{2, 4} { // 2: workers also contend for the semaphore
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			g := faultyGroup(par, explode)
			checkProcPanic(t, recoverString(t, func() { g.RunUntil(time.Millisecond) }), "bad")
			g.Shutdown()
		})
	}
}

func TestShardGroupWorkerGoexitReachesRunCaller(t *testing.T) {
	for _, par := range []int{2, 4} {
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			g := faultyGroup(par, runtime.Goexit)
			if !runGoexits(func() { g.RunUntil(time.Millisecond) }) {
				t.Fatal("RunUntil did not Goexit after a process called runtime.Goexit")
			}
			g.Shutdown()
		})
	}
}

// TestProcessSwitchAllocFree pins a park/resume round trip at zero
// allocations: a Sleep wake-up, and a Queue hand-off from an inline event to
// a parked receiver.
func TestProcessSwitchAllocFree(t *testing.T) {
	e := NewEnv(1)
	e.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	q := NewQueue[int]()
	e.Go("receiver", func(p *Proc) {
		for {
			q.Pop(p)
		}
	})
	push := func() { q.Push(1) }
	step := func() {
		e.After(time.Microsecond, push)
		e.RunUntil(e.Now() + time.Microsecond)
	}
	step() // start both processes and size the heap and wait list
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Errorf("park/resume round trip allocates %.1f times, want 0", avg)
	}
	e.Shutdown()
}
