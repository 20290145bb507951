// Package clockutil is a non-simulation helper package whose functions
// hide wall-clock reads behind one and two call frames. The syntactic
// detclock check never fires here (not a simulation package); the
// interprocedural engine must attribute the taint to simulation-package
// call sites.
package clockutil

import "time"

// HiddenNow reads the wall clock one frame down.
func HiddenNow() int64 { return time.Now().UnixNano() }

// Indirect reaches the wall clock two frames down.
func Indirect() int64 { return HiddenNow() }

// Clock is a generic type whose method reads the wall clock: a call on
// an instance such as Clock[int] must resolve to this declaration.
type Clock[T any] struct{ v T }

// Now reads the wall clock one frame down.
func (c Clock[T]) Now() int64 { return time.Now().UnixNano() }

// Box is a generic type whose method signature mentions its type
// parameter: Get matches interface{ Get() int64 } only through an
// instantiation such as Box[int64].
type Box[T any] struct{ v T }

// Get reads the wall clock one frame down.
func (b Box[T]) Get() T {
	_ = time.Now()
	return b.v
}
