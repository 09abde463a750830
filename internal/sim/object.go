// Package sim implements the asynchronous shared-memory model of Section 2:
// n processes communicate through shared base objects, each step of a process
// applies exactly one primitive operation to one base object, and a
// configuration records the state of every base object (the memory
// representation mem(C)).
//
// The simulator runs each process as a coroutine in lock step with a single
// runner: a process is suspended until the scheduler grants it a step, so
// every interleaving of primitive steps can be produced, replayed and
// inspected. After every step the runner snapshots the memory
// representation, which is exactly the object of the history-independence
// definitions (Definitions 4, 5, 7 and 8).
package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is the state of (or an argument to) a base object. The dynamic type
// must be comparable (the CAS and SC primitives compare values with ==).
type Value any

// PrimKind enumerates the primitive operations supported by base objects.
type PrimKind int

// Primitive kinds. PrimRead/PrimWrite apply to registers and CAS objects;
// PrimCAS applies to CAS objects; the LL/VL/SC/RL/Load/Store kinds apply to
// the hardware R-LLSC cell (Section 6.1).
const (
	PrimRead PrimKind = iota + 1
	PrimWrite
	PrimCAS
	PrimLL
	PrimVL
	PrimSC
	PrimRL
	PrimLoad
	PrimStore
)

var primNames = map[PrimKind]string{
	PrimRead:  "read",
	PrimWrite: "write",
	PrimCAS:   "cas",
	PrimLL:    "LL",
	PrimVL:    "VL",
	PrimSC:    "SC",
	PrimRL:    "RL",
	PrimLoad:  "Load",
	PrimStore: "Store",
}

// String implements fmt.Stringer.
func (k PrimKind) String() string {
	if s, ok := primNames[k]; ok {
		return s
	}
	return fmt.Sprintf("prim(%d)", int(k))
}

// Prim is a single primitive step: a kind, a target object and up to two
// arguments (e.g. the old and new values of a CAS).
type Prim struct {
	Kind PrimKind
	Obj  BaseObject
	Arg1 Value
	Arg2 Value
}

// String renders the primitive for traces, e.g. "cas(head, a, b)".
func (p Prim) String() string {
	switch p.Kind {
	case PrimRead, PrimLL, PrimVL, PrimRL, PrimLoad:
		return fmt.Sprintf("%v(%s)", p.Kind, p.Obj.Name())
	case PrimWrite, PrimSC, PrimStore:
		return fmt.Sprintf("%v(%s, %v)", p.Kind, p.Obj.Name(), p.Arg1)
	case PrimCAS:
		return fmt.Sprintf("%v(%s, %v, %v)", p.Kind, p.Obj.Name(), p.Arg1, p.Arg2)
	default:
		return fmt.Sprintf("%v(%s)", p.Kind, p.Obj.Name())
	}
}

// BaseObject is a shared base object. Only the runner applies primitives;
// processes merely describe the primitive they want to execute.
// Implementations live in this package so that application stays single-
// threaded and race-free by construction.
type BaseObject interface {
	// Name returns the object's name, used in traces and diagnostics.
	Name() string
	// State encodes the object's current state for the memory
	// representation. Two states are equal iff their encodings are equal.
	State() string

	apply(pid int, pr Prim) Value
	reset()
}

// encodeValue renders v exactly as fmt.Sprintf("%v", v) would. The memory
// is snapshotted after every simulated step, so the value types base
// objects hold in practice (string, int, bool) skip fmt; any other type
// falls back to it.
func encodeValue(v Value) string {
	switch x := v.(type) {
	case string:
		return x
	case int:
		return strconv.Itoa(x)
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Reg is an atomic read/write register. An optional domain restricts the
// values it may hold (NewBinReg restricts to {0,1} to model the paper's
// binary registers).
type Reg struct {
	name   string
	init   Value
	cur    Value
	domain func(Value) bool
}

var _ BaseObject = (*Reg)(nil)

// Name implements BaseObject.
func (r *Reg) Name() string { return r.name }

// State implements BaseObject.
func (r *Reg) State() string { return encodeValue(r.cur) }

func (r *Reg) apply(_ int, pr Prim) Value {
	switch pr.Kind {
	case PrimRead:
		return r.cur
	case PrimWrite:
		if r.domain != nil && !r.domain(pr.Arg1) {
			panic(fmt.Sprintf("sim: write of %v outside domain of register %s", pr.Arg1, r.name))
		}
		r.cur = pr.Arg1
		return nil
	default:
		panic(fmt.Sprintf("sim: register %s does not support %v", r.name, pr.Kind))
	}
}

func (r *Reg) reset() { r.cur = r.init }

// CASObj is an atomic compare-and-swap object supporting read, write and
// CAS(old, new), as defined in Section 2. The state of the object is the
// value stored in it.
type CASObj struct {
	name string
	init Value
	cur  Value
}

var _ BaseObject = (*CASObj)(nil)

// Name implements BaseObject.
func (c *CASObj) Name() string { return c.name }

// State implements BaseObject.
func (c *CASObj) State() string { return encodeValue(c.cur) }

func (c *CASObj) apply(_ int, pr Prim) Value {
	switch pr.Kind {
	case PrimRead:
		return c.cur
	case PrimWrite:
		c.cur = pr.Arg1
		return nil
	case PrimCAS:
		if c.cur == pr.Arg1 {
			c.cur = pr.Arg2
			return true
		}
		return false
	default:
		panic(fmt.Sprintf("sim: CAS object %s does not support %v", c.name, pr.Kind))
	}
}

func (c *CASObj) reset() { c.cur = c.init }

// LLSCCell is a hardware context-aware releasable LL/SC cell (Section 6.1):
// its state is the pair (val, context) where context is the set of processes
// that have load-linked the cell since the last context reset. Every
// operation of the R-LLSC interface is a single primitive. It is used to
// test Algorithm 5 against an "ideal" R-LLSC base object, independently of
// the Algorithm 6 implementation from CAS.
type LLSCCell struct {
	name string
	init Value
	val  Value
	ctx  uint64
}

var _ BaseObject = (*LLSCCell)(nil)

// Name implements BaseObject.
func (c *LLSCCell) Name() string { return c.name }

// State implements BaseObject. The context is part of the object's state and
// therefore of the memory representation — this is exactly what forces
// Algorithm 5 to release links (Lemma 27).
func (c *LLSCCell) State() string { return fmt.Sprintf("(%v|ctx=%b)", c.val, c.ctx) }

func (c *LLSCCell) apply(pid int, pr Prim) Value {
	bit := uint64(1) << uint(pid)
	switch pr.Kind {
	case PrimLL:
		c.ctx |= bit
		return c.val
	case PrimVL:
		return c.ctx&bit != 0
	case PrimSC:
		if c.ctx&bit != 0 {
			c.val = pr.Arg1
			c.ctx = 0
			return true
		}
		return false
	case PrimRL:
		c.ctx &^= bit
		return true
	case PrimLoad:
		return c.val
	case PrimStore:
		c.val = pr.Arg1
		c.ctx = 0
		return true
	default:
		panic(fmt.Sprintf("sim: LLSC cell %s does not support %v", c.name, pr.Kind))
	}
}

func (c *LLSCCell) reset() {
	c.val = c.init
	c.ctx = 0
}

// Memory is the vector of base objects used by an implementation; the order
// of registration fixes the indexing of memory representations (mem(C)[i] in
// the paper).
type Memory struct {
	objs  []BaseObject
	index map[BaseObject]int
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{index: make(map[BaseObject]int)}
}

func (m *Memory) add(o BaseObject) {
	m.index[o] = len(m.objs)
	m.objs = append(m.objs, o)
}

// NewReg creates and registers a read/write register with the given initial
// value.
func (m *Memory) NewReg(name string, init Value) *Reg {
	r := &Reg{name: name, init: init, cur: init}
	m.add(r)
	return r
}

// NewBinReg creates and registers a binary register (values 0 and 1 only).
func (m *Memory) NewBinReg(name string, init int) *Reg {
	if init != 0 && init != 1 {
		panic(fmt.Sprintf("sim: binary register %s initialized to %d", name, init))
	}
	r := &Reg{
		name: name, init: init, cur: init,
		domain: func(v Value) bool { i, ok := v.(int); return ok && (i == 0 || i == 1) },
	}
	m.add(r)
	return r
}

// NewCAS creates and registers a CAS object with the given initial value.
func (m *Memory) NewCAS(name string, init Value) *CASObj {
	c := &CASObj{name: name, init: init, cur: init}
	m.add(c)
	return c
}

// NewLLSC creates and registers a hardware R-LLSC cell with the given initial
// value and an empty context.
func (m *Memory) NewLLSC(name string, init Value) *LLSCCell {
	c := &LLSCCell{name: name, init: init, val: init}
	m.add(c)
	return c
}

// Len returns the number of registered base objects.
func (m *Memory) Len() int { return len(m.objs) }

// Names returns the object names in index order.
func (m *Memory) Names() []string {
	names := make([]string, len(m.objs))
	for i, o := range m.objs {
		names[i] = o.Name()
	}
	return names
}

// IndexOf returns the memory index of o, or -1 if o is not registered.
func (m *Memory) IndexOf(o BaseObject) int {
	if i, ok := m.index[o]; ok {
		return i
	}
	return -1
}

// Snapshot returns the current memory representation as a vector of encoded
// object states.
func (m *Memory) Snapshot() []string {
	snap := make([]string, len(m.objs))
	for i, o := range m.objs {
		snap[i] = o.State()
	}
	return snap
}

// Fingerprint returns the current memory representation as a single string;
// two configurations have equal fingerprints iff they have equal memory
// representations.
func (m *Memory) Fingerprint() string { return Fingerprint(m.Snapshot()) }

// Reset restores every base object to its initial state.
func (m *Memory) Reset() {
	for _, o := range m.objs {
		o.reset()
	}
}

// Fingerprint joins a snapshot into a single comparable string.
func Fingerprint(snap []string) string { return strings.Join(snap, " | ") }

// Distance returns the number of indices at which the two memory
// representations differ (the distance of Proposition 6). It panics if the
// vectors have different lengths.
func Distance(a, b []string) int {
	if len(a) != len(b) {
		panic("sim: distance of unequal-length memories")
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}
