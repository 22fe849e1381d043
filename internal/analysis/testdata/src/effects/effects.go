// Package fixture is the hand-built mini program for the write-effect
// summary unit test (effects_test.go): each function's expected write
// regions and return-alias sets are asserted directly against the
// engine's output.
package fixture

import (
	"errors"
	"fmt"
	"sort"
)

// Table is an init-only lookup table; reads copy scalars out of it.
var Table = map[int]string{1: "a"}

// Counter is a mutable global scalar.
var Counter int

// Buf is a mutable global slice.
var Buf = make([]byte, 16)

// Machine is the receiver shape.
type Machine struct {
	regs [4]uint64
	mem  []byte
}

// SetReg writes only the receiver.
func (m *Machine) SetReg(i int, v uint64) { m.regs[i] = v }

// Fill writes only its second parameter.
func Fill(n int, dst []byte) {
	for i := 0; i < n && i < len(dst); i++ {
		dst[i] = byte(n)
	}
}

// Bump writes the global scalar directly.
func Bump() { Counter++ }

// BufAlias hands out the global buffer.
func BufAlias() []byte { return Buf }

// WriteThroughAlias writes the global through the accessor's result.
func WriteThroughAlias() { BufAlias()[0] = 1 }

// CopyOut copies a scalar out of the global table: scalar copies sever
// aliasing, so this has no effects and no return aliases.
func CopyOut(k int) string { return Table[k] }

// AddrOfCounter returns the address of the global scalar: the one way
// a scalar re-enters the analysis.
func AddrOfCounter() *int { return &Counter }

// WriteViaPointer writes the scalar through the returned pointer.
func WriteViaPointer() { *AddrOfCounter() = 7 }

// Step maps callee effects through the call sites: receiver via
// SetReg, parameter via Fill, global via Bump.
func (m *Machine) Step(scratch []byte) {
	m.SetReg(0, 1)
	Fill(4, scratch)
	Bump()
}

// Sorted is a mutable global slice.
var Sorted = []int{3, 1, 2}

// SortGlobal writes the global through a stdlib callee: a function
// without a body in the program writes through its slice argument.
func SortGlobal() { sort.Ints(Sorted) }

// ErrSentinel is a global error value.
var ErrSentinel = errors.New("sentinel")

// Logf may write through its variadic slice (it hands it to the
// stdlib), so it writes param#1.
func Logf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// LogSentinel passes the global to Logf's implicit ...any slice. The
// slice is fresh at the call and its elements are interfaces, so the
// call writes nothing of the caller's.
func LogSentinel() string { return Logf("failed: %v", ErrSentinel) }

// BumpAll writes through every pointer of its variadic slice.
func BumpAll(ps ...*int) {
	for _, p := range ps {
		*p++
	}
}

// BumpCounter hands the global's address to BumpAll's implicit ...*int
// slice, after a local: every trailing argument is bound, and the call
// writes Counter.
func BumpCounter() { BumpAll(new(int), &Counter) }
