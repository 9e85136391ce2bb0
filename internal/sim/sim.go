//go:build go1.23

// Package sim implements a deterministic discrete-event simulation (DES)
// kernel with cooperative, coroutine-backed processes.
//
// The kernel is the substrate for the whole KafkaDirect reproduction: the
// RDMA fabric, the TCP stack, brokers, and clients all run as sim processes
// exchanging real bytes while time advances virtually. A benchmark that
// "takes" 400 simulated seconds completes in milliseconds of wall time and is
// bit-for-bit reproducible for a given seed.
//
// Concurrency model: exactly one process runs at a time. A process runs until
// it blocks (Sleep, Queue.Recv, Cond.Wait, Resource.Acquire, ...) or returns.
// The scheduler then pops the next event from a time-ordered heap and resumes
// its process. Events with equal timestamps are ordered by insertion sequence,
// which makes the simulation fully deterministic.
//
// Each process is a stdlib runtime coroutine (iter.Pull): resuming it is a
// direct goroutine switch that bypasses the Go scheduler, about 200 ns per
// park/resume round trip on a 2-CPU Xeon. iter.Pull needs Go 1.23; the
// go1.23 build constraint above raises this file's language version without
// bumping go.mod, whose go line nested modules that require this one
// (perfbench) must match.
//
// A panic or runtime.Goexit (t.Fatal) inside a process unwinds the process
// and is re-raised on the goroutine that called Run/RunUntil: a panic as a
// string naming the process and carrying its original stack, a Goexit as a
// Goexit. ShardGroup forwards both from its worker goroutines to the caller
// of its own Run/RunUntil.
package sim

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"runtime/debug"
	"time"
)

// Time is a point in virtual time, measured from the start of the simulation.
type Time = time.Duration

// Env is a simulation environment: a virtual clock plus the event queue and
// process bookkeeping. Create one with NewEnv, spawn processes with Go, and
// drive it with Run or RunUntil.
type Env struct {
	now    Time
	events eventHeap
	seq    uint64
	// executed counts dispatched events (timer callbacks and process
	// resumptions); the benchmark harness reads it to report events/sec.
	executed uint64

	stopped bool
	live    int // processes spawned and not yet exited

	rng *rand.Rand

	// procs tracks every spawned process so Shutdown can unwind them.
	procs []*Proc

	// Trace, when non-nil, receives a line per interesting kernel event.
	// Used by tests and the -trace flag of cmd/kdcluster.
	Trace func(format string, args ...any)
}

// NewEnv returns a fresh environment with its clock at zero and a
// deterministic random source derived from seed.
func NewEnv(seed int64) *Env {
	return &Env{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
//
//kdlint:hotpath
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source. It must only
// be used from within simulation processes (or before Run), never from
// foreign goroutines.
func (e *Env) Rand() *rand.Rand { return e.rng }

// event is a scheduled occurrence: either resume a parked process or invoke
// an inline callback (which must not block). Inline callbacks are the fast
// path: the scheduler invokes them directly, with no process switch.
// An event carries either fn (a plain closure) or fnArg+arg (a shared
// function applied to a caller-pooled argument, see AtArg) — the latter lets
// hot paths schedule work without allocating a closure per event.
type event struct {
	at    Time
	seq   uint64
	proc  *Proc
	fn    func()
	fnArg func(any)
	arg   any
}

// before orders events by time, then by insertion sequence (determinism).
//
//kdlint:hotpath
func (ev *event) before(o *event) bool {
	return ev.at < o.at || (ev.at == o.at && ev.seq < o.seq)
}

// eventHeap is a concrete 4-ary min-heap of event values. Unlike
// container/heap it never boxes events into interface values, so pushing and
// popping allocate nothing (beyond amortised slice growth). A 4-ary layout
// halves the tree depth of a binary heap, trading slightly wider sibling
// scans — a win for the short, hot comparisons here.
type eventHeap struct {
	a []event
}

func (h *eventHeap) len() int { return len(h.a) }

//kdlint:hotpath amortized growth of the caller-owned heap slice
func (h *eventHeap) push(ev event) {
	h.a = append(h.a, ev)
	a := h.a
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(&a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = ev
}

func (h *eventHeap) pop() event {
	a := h.a
	root := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = event{} // clear the vacated slot so proc/fn become collectable
	h.a = a[:n]
	if n > 0 {
		h.siftDown(last)
	}
	return root
}

// siftDown places ev, displaced from the tail, into the root's subtree.
func (h *eventHeap) siftDown(ev event) {
	a := h.a
	n := len(a)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if a[j].before(&a[m]) {
				m = j
			}
		}
		if !a[m].before(&ev) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = ev
}

//kdlint:hotpath
func (e *Env) push(at Time, p *Proc, fn func()) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, proc: p, fn: fn})
}

// At schedules fn to run inline (in scheduler context, without a process) at
// absolute virtual time t. fn must not block; it may wake processes.
//
//kdlint:hotpath
func (e *Env) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.push(t, nil, fn)
}

// After schedules fn to run d from now. See At.
//
//kdlint:hotpath
func (e *Env) After(d Time, fn func()) { e.At(e.now+d, fn) }

// AtArg schedules fn(arg) to run inline at absolute virtual time t. It is At
// for allocation-free hot paths: fn is a shared (package-level) function and
// arg a pooled record, so no closure is materialised per event. fn must not
// block.
//
//kdlint:hotpath
func (e *Env) AtArg(t Time, fn func(any), arg any) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fnArg: fn, arg: arg})
}

// AfterArg schedules fn(arg) to run d from now. See AtArg.
//
//kdlint:hotpath
func (e *Env) AfterArg(d Time, fn func(any), arg any) { e.AtArg(e.now+d, fn, arg) }

// Proc is a simulation process. All blocking operations take the process as
// receiver so that misuse (blocking outside a process) is impossible to write.
type Proc struct {
	env  *Env
	name string
	// next resumes the process coroutine until it parks or exits; stop
	// unwinds it; yield (inside the coroutine) hands control back to
	// whoever called next. All three are dropped when the process exits.
	next   func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	parked bool
	dead   bool
	// waitToken guards against stale timeout events waking a process that
	// has already been woken for another reason and moved on.
	waitToken uint64
	// timedOut stages the timeout flag between the timer event firing and the
	// scheduler resuming the process.
	timedOut bool
}

// killSentinel is the panic value used to unwind processes on Shutdown.
type killSentinel struct{}

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go spawns a new process running fn, scheduled to start at the current
// virtual time. It is safe to call before Run and from within processes.
//
// The process runs as an iter.Pull coroutine. If fn panics, the panic is
// re-raised on the goroutine driving the scheduler, as a string carrying the
// process name and fn's stack; if fn calls runtime.Goexit (t.Fatal inside a
// simulation process), the driving goroutine exits too. Either way the
// process is marked dead before the scheduler unwinds.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name}
	e.live++
	e.procs = append(e.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.exit()
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); !ok {
					panic(fmt.Sprintf("sim: process %q panicked: %v\n\n%s", p.name, r, debug.Stack()))
				}
			}
		}()
		fn(p)
	})
	e.push(e.now, p, nil)
	return p
}

// exit marks the process dead and drops its coroutine handles, so a finished
// process pins neither its coroutine nor what fn captured.
func (p *Proc) exit() {
	p.dead = true
	p.env.live--
	p.next, p.stop, p.yield = nil, nil, nil
}

// park suspends the calling process until it is woken. Returns true if the
// wakeup was a timeout (see parkTimeout).
func (p *Proc) park() bool {
	p.parked = true
	ok := p.yield(struct{}{})
	p.parked = false
	if !ok {
		panic(killSentinel{}) // Shutdown called stop
	}
	to := p.timedOut
	p.timedOut = false
	return to
}

// wake schedules a parked process to resume at the current time. It must only
// be called while p is parked and not otherwise scheduled.
func (p *Proc) wake() {
	p.waitToken++
	p.env.push(p.env.now, p, nil)
}

// parkTimeout parks the process and additionally arms a timer: if nothing
// wakes it within d, cancel (called in scheduler context, must remove p from
// whatever wait list it is on) runs and the process resumes with timedOut
// reported true. d < 0 means no timeout.
func (p *Proc) parkTimeout(d Time, cancel func()) (timedOut bool) {
	if d < 0 {
		return p.park()
	}
	p.waitToken++
	token := p.waitToken
	e := p.env
	e.push(e.now+d, nil, func() {
		if p.waitToken != token || !p.parked {
			return // already woken for another reason
		}
		cancel()
		p.waitToken++
		e.push(e.now, p, nil)
		p.timedOut = true
	})
	return p.park()
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		// Even zero-length sleeps yield, preserving round-robin fairness.
		d = 0
	}
	p.waitToken++
	p.env.push(p.env.now+d, p, nil)
	p.park()
}

// Yield reschedules the process at the current time, letting equally-timed
// events run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Run executes the simulation until no events remain or Stop is called.
func (e *Env) Run() { e.RunUntil(-1) }

// RunUntil executes the simulation until no events remain, Stop is called, or
// the clock would pass deadline (deadline < 0 means no deadline). Events at
// exactly deadline still run.
func (e *Env) RunUntil(deadline Time) {
	e.stopped = false
	end := Time(math.MaxInt64)
	if deadline >= 0 && deadline < end {
		end = deadline + 1
	}
	e.runBefore(end)
	if deadline >= 0 && e.events.len() > 0 && !e.stopped {
		e.now = deadline
	}
}

// runBefore executes events strictly before end, then returns. It is the one
// dispatch loop of the kernel: RunUntil wraps it with an inclusive deadline
// and the clock advance, and the sharded kernel (shard.go) calls it directly
// to stop exactly at the conservative lookahead horizon.
func (e *Env) runBefore(end Time) {
	for e.events.len() > 0 && !e.stopped {
		if e.events.a[0].at >= end {
			return
		}
		ev := e.events.pop()
		if ev.at > e.now {
			e.now = ev.at
		}
		e.executed++
		if ev.fn != nil {
			// Inline fast path: timer/At callbacks run in scheduler context
			// with no process switch.
			ev.fn()
			continue
		}
		if ev.fnArg != nil {
			ev.fnArg(ev.arg)
			continue
		}
		if p := ev.proc; !p.dead {
			p.next()
		}
	}
}

// advanceTo moves the clock forward to t (never backward); the sharded
// kernel uses it to leave every shard at the common deadline after a
// bounded run, matching RunUntil's behaviour for a single environment.
func (e *Env) advanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// Stop makes Run return after the current event completes.
func (e *Env) Stop() { e.stopped = true }

// Shutdown unwinds every remaining process so the environment and the
// memory its processes pin become garbage-collectable. Call it after the
// last Run/RunUntil; the environment must not be used afterwards. Long-lived
// harnesses that build many simulations (the benchmark suite constructs one
// per data point) depend on this to keep memory bounded.
func (e *Env) Shutdown() {
	for _, p := range e.procs {
		if p.dead {
			continue
		}
		p.stop()
		if !p.dead {
			p.exit() // stopped before it ever ran: fn and its defer never started
		}
	}
	e.procs = nil
	e.events = eventHeap{}
}

// Pending reports the number of scheduled events (diagnostic).
func (e *Env) Pending() int { return e.events.len() }

// Executed reports the total number of events dispatched by Run/RunUntil so
// far (timer callbacks and process resumptions). The benchmark harness sums
// it across environments to report simulator events/sec.
func (e *Env) Executed() uint64 { return e.executed }

// Live reports the number of spawned processes that have not exited.
func (e *Env) Live() int { return e.live }

func (e *Env) tracef(format string, args ...any) {
	if e.Trace != nil {
		e.Trace(format, args...)
	}
}

// ---------------------------------------------------------------------------
// Condition variables
// ---------------------------------------------------------------------------

// Cond is a simulation-aware condition variable. There is no associated lock:
// because only one process runs at a time, state inspected immediately before
// Wait cannot change underneath the caller.
type Cond struct {
	waiters []*Proc
}

// Wait parks the calling process until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park()
}

// WaitTimeout is Wait with a timeout; it reports whether the wait timed out.
// d < 0 waits forever.
func (c *Cond) WaitTimeout(p *Proc, d Time) (timedOut bool) {
	c.waiters = append(c.waiters, p)
	return p.parkTimeout(d, func() { c.remove(p) })
}

func (c *Cond) remove(p *Proc) {
	for i, w := range c.waiters {
		if w == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	// Shift down rather than reslice: c.waiters[1:] would shrink the
	// backing array's usable capacity on every Signal, forcing the next
	// Wait's append to reallocate — a hidden per-wakeup heap allocation.
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	p.wake()
}

// Broadcast wakes all waiting processes.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, p := range ws {
		p.wake()
	}
}

// Waiting reports the number of processes blocked on the condition.
func (c *Cond) Waiting() int { return len(c.waiters) }

// ---------------------------------------------------------------------------
// Queues
// ---------------------------------------------------------------------------

// Queue is an unbounded FIFO queue of T with blocking receive. It is the
// building block for request queues, completion queues, and message inboxes.
//
// Storage is a power-of-two ring buffer: popping advances a head index
// instead of re-slicing, so popped memory is neither retained nor does the
// backing array creep forward and reallocate. Vacated slots are zeroed so
// popped payloads become garbage-collectable immediately.
type Queue[T any] struct {
	buf  []T // len(buf) is always zero or a power of two
	head int // index of the oldest item
	n    int // number of queued items
	cond Cond
	// wakes counts receivers that have been signalled by Push but whose
	// resume event has not yet run. Push skips the signal while the queued
	// items are already covered by in-flight wakeups, so a pool of workers
	// batch-drains a burst of same-instant pushes instead of paying one
	// park/unpark handshake per item. This is invisible to virtual time: a
	// signalled receiver's resume is scheduled at the current instant, so
	// coalescing can only transfer an item to a receiver that would have
	// popped it at the same timestamp anyway.
	wakes int
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// grow doubles the ring, linearising the current contents at index 0.
func (q *Queue[T]) grow() {
	newCap := 2 * len(q.buf)
	if newCap == 0 {
		newCap = 8
	}
	nb := make([]T, newCap)
	if q.n > 0 {
		tail := copy(nb, q.buf[q.head:])
		copy(nb[tail:], q.buf[:q.head])
	}
	q.buf = nb
	q.head = 0
}

// Push appends an item and wakes one waiting receiver, unless enough
// receivers are already on their way (see the wakes field). It never blocks
// and is callable from inline events as well as processes.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
	if q.n > q.wakes && q.cond.Waiting() > 0 {
		q.wakes++
		q.cond.Signal()
	}
}

// pop removes and returns the head item; the queue must be non-empty.
func (q *Queue[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// TryPop removes and returns the head item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.n == 0 {
		var zero T
		return zero, false
	}
	return q.pop(), true
}

// signalled accounts for one signalled receiver resuming; every return from
// a signalled (non-timed-out) wait must pass through here to keep the
// Push-side wake accounting exact.
func (q *Queue[T]) signalled() {
	if q.wakes > 0 {
		q.wakes--
	}
}

// Pop blocks the calling process until an item is available, then removes and
// returns the head item.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.n == 0 {
		q.cond.Wait(p)
		q.signalled()
	}
	return q.pop()
}

// PopTimeout is Pop with a timeout. ok is false if the timeout elapsed first.
// d < 0 waits forever.
func (q *Queue[T]) PopTimeout(p *Proc, d Time) (v T, ok bool) {
	deadline := p.env.now + d
	for q.n == 0 {
		if d < 0 {
			q.cond.Wait(p)
			q.signalled()
			continue
		}
		remain := deadline - p.env.now
		if remain < 0 || q.cond.WaitTimeout(p, remain) {
			var zero T
			return zero, false
		}
		q.signalled()
	}
	return q.pop(), true
}

// ---------------------------------------------------------------------------
// Resources
// ---------------------------------------------------------------------------

// Resource models a pool of identical servers (CPU threads, an RNIC atomic
// unit, ...). Acquire takes one unit, blocking FIFO when none are free.
type Resource struct {
	capacity int
	inUse    int
	cond     Cond
}

// NewResource returns a resource pool with the given capacity.
func NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource capacity %d", capacity))
	}
	return &Resource{capacity: capacity}
}

// Acquire blocks until a unit is free and takes it.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.capacity {
		r.cond.Wait(p)
	}
	r.inUse++
}

// Release returns a unit and wakes one waiter.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	r.inUse--
	r.cond.Signal()
}

// Use acquires a unit, holds it for service time d, and releases it. This is
// the common pattern for charging CPU or NIC processing time.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Capacity reports the pool size.
func (r *Resource) Capacity() int { return r.capacity }

// ---------------------------------------------------------------------------
// Pacer
// ---------------------------------------------------------------------------

// Pacer serialises access to a rate-limited serial device (a network link, a
// memory bus). Reserve books the next slot of length d and returns the time
// the booked interval ends; the device is busy until then. It does not block:
// callers that want to experience the delay sleep until the returned time.
type Pacer struct {
	freeAt Time
}

// Reserve books an interval of length d starting no earlier than now, and
// returns the interval's end time.
//
//kdlint:hotpath
func (pc *Pacer) Reserve(now, d Time) Time {
	start := now
	if pc.freeAt > start {
		start = pc.freeAt
	}
	pc.freeAt = start + d
	return pc.freeAt
}

// FreeAt reports when the device becomes idle.
func (pc *Pacer) FreeAt() Time { return pc.freeAt }
