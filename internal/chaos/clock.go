// Package chaos is the fault-injection layer for the OASSIS crowd platform.
// The paper's crowd is the unreliable component: Section 4.2 explicitly
// allows members to depart mid-run, answer slowly, or answer inconsistently.
// This package makes those behaviours injectable and reproducible:
//
//   - Clock abstracts time so chaos scenarios run in a deterministic
//     simulation (VirtualClock) or against the wall clock (Real).
//   - FaultyMember decorates any crowd.Member with seed-driven faults:
//     fixed or heavy-tailed answer latency, mid-run departure,
//     timeout-then-return, and contradictory answers.
//
// Every fault decision is drawn from a seeded RNG and every delay from the
// injected Clock, so a scenario replays bit-identically from its seed.
package chaos

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the time source the chaos layer, the engine, and the server
// share. Production code uses Real(); deterministic tests use a
// VirtualClock so no scenario ever waits on the wall clock.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time
	// Sleep blocks the caller for d of this clock's time.
	Sleep(d time.Duration)
	// After returns a channel that receives the clock's time once d has
	// elapsed on this clock.
	After(d time.Duration) <-chan time.Time
}

// realClock is the wall clock.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Real returns the wall clock.
func Real() Clock { return realClock{} }

// VirtualClock is a deterministic simulation clock. Sleep advances virtual
// time immediately and returns (discrete-event style): a simulated member
// "thinking" for two virtual minutes costs zero wall time. Timers created
// with After fire as soon as any Sleep or Advance moves virtual time past
// their deadline. All methods are safe for concurrent use; with a single
// goroutine the sequence of observed times is a pure function of the calls
// made, which is what lets chaos scenarios replay bit-identically.
type VirtualClock struct {
	mu      sync.Mutex
	now     time.Time
	start   time.Time
	waiters waiterHeap
}

// NewVirtualClock returns a virtual clock starting at a fixed epoch, so
// two runs of the same scenario observe identical timestamps.
func NewVirtualClock() *VirtualClock {
	epoch := time.Date(2014, 6, 22, 0, 0, 0, 0, time.UTC) // SIGMOD'14
	return &VirtualClock{now: epoch, start: epoch}
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep implements Clock by advancing virtual time by d.
func (c *VirtualClock) Sleep(d time.Duration) { c.Advance(d) }

// Advance moves virtual time forward by d, firing every timer whose
// deadline is reached. Negative durations are ignored.
func (c *VirtualClock) Advance(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.fireLocked()
	c.mu.Unlock()
}

// After implements Clock. The timer fires on the Sleep/Advance call that
// first moves virtual time to or past the deadline; a zero or negative d
// fires immediately.
func (c *VirtualClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	deadline := c.now.Add(d)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	heap.Push(&c.waiters, &waiter{deadline: deadline, ch: ch})
	return ch
}

// Elapsed returns how much virtual time has passed since the clock was
// created — the simulated wall-clock cost of a scenario.
func (c *VirtualClock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now.Sub(c.start)
}

// fireLocked delivers every timer whose deadline has been reached.
func (c *VirtualClock) fireLocked() {
	for len(c.waiters) > 0 && !c.waiters[0].deadline.After(c.now) {
		w := heap.Pop(&c.waiters).(*waiter)
		w.ch <- c.now
	}
}

type waiter struct {
	deadline time.Time
	ch       chan time.Time
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int           { return len(h) }
func (h waiterHeap) Less(i, j int) bool { return h[i].deadline.Before(h[j].deadline) }
func (h waiterHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)        { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}
