// The fixture's package clause says netsim, so the detclock and
// lockedsend rules treat it as simulation code; the violations live in
// the imported helper packages, one and two frames down.
package netsim

import (
	"sync"

	"edgecachegroups/internal/lint/testdata/src/transitive/blockutil"
	"edgecachegroups/internal/lint/testdata/src/transitive/clockutil"
)

// stamp reaches time.Now one call level deep.
func stamp() int64 { return clockutil.HiddenNow() }

// deepStamp reaches time.Now two call levels deep.
func deepStamp() int64 { return clockutil.Indirect() }

type box struct {
	mu sync.Mutex
	ch chan int
}

// lockedDrain calls a helper that blocks on a channel receive while
// holding the mutex.
func (b *box) lockedDrain() int {
	b.mu.Lock()
	v := blockutil.Drain(b.ch)
	b.mu.Unlock()
	return v
}

// lockedDeepDrain reaches the blocking receive two frames down.
func (b *box) lockedDeepDrain() int {
	b.mu.Lock()
	v := blockutil.DrainDeep(b.ch)
	b.mu.Unlock()
	return v
}

// lockedPoll calls a non-blocking helper under the lock: clean.
func (b *box) lockedPoll() int {
	b.mu.Lock()
	v, _ := blockutil.Poll(b.ch)
	b.mu.Unlock()
	return v
}

// spawnedDrain starts the blocking helper in its own goroutine: the
// caller's lock is never held across the block, so this is clean.
func (b *box) spawnedDrain() {
	b.mu.Lock()
	go blockutil.Drain(b.ch)
	b.mu.Unlock()
}

// lockedRange ranges over a channel while holding the mutex.
func (b *box) lockedRange() int {
	total := 0
	b.mu.Lock()
	for v := range b.ch {
		total += v
	}
	b.mu.Unlock()
	return total
}

// genericStamp calls a method of an instantiated generic type.
func genericStamp() int64 { return clockutil.Clock[int]{}.Now() }

type nower interface{ Now() int64 }

// ifaceStamp reaches the generic method through interface dispatch.
func ifaceStamp(n nower) int64 { return n.Now() }

type getter interface{ Get() int64 }

// boxed makes Box[int64] a getter of this program.
var boxed getter = clockutil.Box[int64]{}

// getterStamp reaches a generic method whose signature mentions its type
// parameter through interface dispatch.
func getterStamp(g getter) int64 { return g.Get() }
