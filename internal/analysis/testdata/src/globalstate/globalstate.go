// Package fixture seeds shared-state violations for the globalstate
// analyzer tests: mutable globals, init-only tables, consts in waiting,
// accessor-aliased writes, the shared-ok escape hatch, and globals
// written from a machine's step path through a receiver, a parameter,
// a variadic slice or a stdlib callee.
package fixture

import (
	"errors"
	"fmt"
	"sort"
)

// MutableCounter is written at runtime by an exported function.
var MutableCounter int // want "package-level var MutableCounter is written after init"

// exitTable is only ever filled during package initialization — both
// directly in init and through a helper reachable only from init — so
// it is an accepted init-only table.
var exitTable = map[int]string{}

func init() {
	exitTable[0] = "ok"
	fillTable()
}

// fillTable is unexported and called only from init, so its write is
// init-only too.
func fillTable() {
	exitTable[1] = "fault"
}

// DeviceID is never written and has basic type: a const in waiting.
var DeviceID = 0x1f2 // want "package-level var DeviceID is never written; declare it const"

// Registry is audited shared state.
var Registry = map[string]int{} // shared-ok: cross-machine service registry, audited with the epoch design

// Bump writes both; only the unannotated one is a finding.
func Bump() {
	MutableCounter++
	Registry["bump"] = 1
}

// names leaks its backing store through an accessor; the aliased write
// in Rename must still be attributed to it.
var names = []string{"timer", "serial"} // want "package-level var names is written after init"

// Names hands out the live backing slice.
func Names() []string { return names }

// Rename writes the global through the accessor's result.
func Rename(i int, s string) {
	Names()[i] = s
}

// The kernel and VMM below model a machine's step path (Kernel.Run,
// VMM.handleExit). Every global they write couples two machines in one
// process, whatever the shape of the write; the call that hands a
// global to a writer names the caller.

// exitCount and exitTotal are bumped by the kernel's and the VMM's exit
// paths.
var exitCount int // want "package-level var exitCount is written after init (in globalstate.Kernel.step)"

var exitTotal int // want "package-level var exitTotal is written after init (in globalstate.VMM.handleExit)"

// netPipe is a cross-machine channel; a comment on its store does not
// make it per-machine state.
var netPipe [][]byte // want "package-level var netPipe is written after init (in globalstate.Kernel.send)"

// meter is bumped through a method that mutates its receiver, and
// tally through a pointer method on a scalar type.
var meter counter // want "package-level var meter is written after init (in globalstate.Kernel.step)"

var tally ticks // want "package-level var tally is written after init (in globalstate.Kernel.step)"

// frameBuf is written by a helper through its slice parameter.
var frameBuf [64]byte // want "package-level var frameBuf is written after init (in globalstate.Kernel.step)"

// irqPending is written through a variadic pointer.
var irqPending int // want "package-level var irqPending is written after init (in globalstate.Kernel.step)"

// runQueue is sorted in place by the stdlib.
var runQueue = []int{3, 1, 2} // want "package-level var runQueue is written after init (in globalstate.Kernel.step)"

// errHalted only reaches a ...any slice, which writes nothing of its
// caller's: it is not a finding.
var errHalted = errors.New("halted")

type counter struct{ n int }

func (c *counter) bump() { c.n++ }

type ticks int

func (t *ticks) bump() { *t++ }

// Kernel models the per-machine hypervisor kernel.
type Kernel struct {
	cycles uint64
	buf    []byte
	log    []string
}

// Run is the kernel's step root.
func (k *Kernel) Run() {
	k.cycles++ // receiver write: per-machine state
	k.step()
}

func (k *Kernel) step() {
	exitCount++
	k.send([]byte{1})
	local := make([]byte, 4)
	fill(local) // a parameter write into local storage stays local
	k.buf = local
	meter.bump()
	tally.bump()
	fill(frameBuf[:])
	bumpAll(&irqPending)
	sort.Ints(runQueue)
	k.log = append(k.log, logf("exit: %v", errHalted))
}

func (k *Kernel) send(frame []byte) {
	netPipe = append(netPipe, frame) // shared: the simulated NIC wire (this comment suppresses nothing)
}

// fill writes only through its parameter.
func fill(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

func bumpAll(ps ...*int) {
	for _, p := range ps {
		*p++
	}
}

func logf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// VMM models the per-VM user-level device-model process.
type VMM struct {
	exits uint64
}

func (v *VMM) handleExit(reason int) {
	v.exits++
	exitTotal++
}
