// Package callgraph exercises the engine's graph construction: method
// sets, interface dispatch, recursion cycles, and mutates-parameter
// propagation. It deliberately produces no findings.
package callgraph

type ringer interface {
	Ring() int
}

type bell struct{ hits int }

func (b *bell) Ring() int {
	b.hits++
	return b.hits
}

type silent struct{}

func (silent) Ring() int { return 0 }

// counter has a Ring method with another signature, so it does not
// implement ringer: dispatchThrough must not reach it.
type counter struct{}

func (counter) Ring(n int) int { return n }

// dispatchThrough calls Ring through the interface; both implementing
// methods must become edges.
func dispatchThrough(r ringer) int { return r.Ring() }

// even/odd form a pure recursion cycle: the fixpoint must converge with
// no facts set.
func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

// evenBlocking/oddBlocking form a cycle with a blocking base fact: both
// members must converge to blocks=true.
func evenBlocking(ch chan int, n int) int {
	if n == 0 {
		return <-ch
	}
	return oddBlocking(ch, n-1)
}

func oddBlocking(ch chan int, n int) int { return evenBlocking(ch, n-1) }

// setFirst writes through its slice parameter.
func setFirst(xs []int, v int) { xs[0] = v }

// passThrough mutates its parameter only transitively.
func passThrough(xs []int) { setFirst(xs, 1) }

// reassign rebinds the parameter variable locally: NOT a caller-visible
// mutation.
func reassign(xs []int) { xs = nil; _ = xs }
