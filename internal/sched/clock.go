package sched

import (
	"sync"
	"time"
)

// Clock abstracts time for the scheduler so tests drive fires
// deterministically with a FakeClock.
type Clock interface {
	Now() time.Time
	// Until returns a channel that receives once the clock reaches
	// deadline — at once if it already has. The scheduler waits on it
	// between fires. The deadline is absolute, so time that passes
	// between reading Now and arming the wait shortens the wait instead
	// of postponing the fire.
	Until(deadline time.Time) <-chan time.Time
}

// RealClock is the production Clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Until implements Clock.
func (RealClock) Until(deadline time.Time) <-chan time.Time {
	return time.After(time.Until(deadline))
}

// FakeClock is a manually advanced Clock for tests. Advance moves the
// clock and releases any waiter whose deadline has passed.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewFakeClock starts a fake clock at the given instant.
func NewFakeClock(at time.Time) *FakeClock {
	return &FakeClock{now: at}
}

// Now implements Clock.
func (f *FakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Until implements Clock. A deadline not after the current fake time
// fires immediately.
func (f *FakeClock) Until(deadline time.Time) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan time.Time, 1)
	if !deadline.After(f.now) {
		ch <- f.now
		return ch
	}
	f.waiters = append(f.waiters, fakeWaiter{at: deadline, ch: ch})
	return ch
}

// Advance moves the clock forward by d, waking every waiter whose
// deadline is reached.
func (f *FakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	kept := f.waiters[:0]
	for _, w := range f.waiters {
		if !w.at.After(f.now) {
			w.ch <- f.now
		} else {
			kept = append(kept, w)
		}
	}
	f.waiters = kept
}

// Waiters reports how many After calls are pending.
func (f *FakeClock) Waiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}
