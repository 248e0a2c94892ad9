// Package fsm models incompletely specified Mealy machines with symbolic
// (BDD) input conditions, provides SAT-based exact state minimization in
// the style of MeMin (Abel & Reineke, ICCAD 2015), and synthesizes
// machines back into sequential circuits under natural-binary or one-hot
// state encodings — the three roles Sections V-B and V-C of the paper
// delegate to MeMin and the encoding step.
package fsm

import (
	"fmt"

	"circuitfold/internal/bdd"
)

// Tri is a three-valued output: 0, 1, or don't care.
type Tri int8

// Tri values.
const (
	X    Tri = -1 // unspecified
	Zero Tri = 0
	One  Tri = 1
)

func (t Tri) String() string {
	switch t {
	case Zero:
		return "0"
	case One:
		return "1"
	}
	return "-"
}

// DontCare marks an unspecified destination state.
const DontCare = -1

// Transition is one symbolic transition: when the machine is in the
// source state and the inputs satisfy Cond, it emits Out and moves to
// Dst (DontCare leaves the successor unspecified).
type Transition struct {
	Cond bdd.Node
	Out  []Tri
	Dst  int
}

// Machine is an incompletely specified Mealy machine. Transition
// conditions are BDDs over input variables 0..NumInputs-1 of Mgr. The
// conditions of one state's transitions must be pairwise disjoint; input
// combinations not covered by any transition are completely unspecified.
type Machine struct {
	Mgr        *bdd.Manager
	NumInputs  int
	NumOutputs int
	Initial    int
	Trans      [][]Transition
}

// NumStates returns the number of states.
func (m *Machine) NumStates() int { return len(m.Trans) }

// NumTransitions returns the total transition count.
func (m *Machine) NumTransitions() int {
	n := 0
	for _, ts := range m.Trans {
		n += len(ts)
	}
	return n
}

// Validate checks structural sanity and the disjointness of each state's
// transition conditions. Disjointness is checked against a running union
// of the state's earlier conditions, one And and one Or per transition;
// only an overlap scans the earlier conditions, to name the first one it
// meets.
func (m *Machine) Validate() error {
	if m.Initial < 0 || m.Initial >= len(m.Trans) {
		return fmt.Errorf("fsm: initial state %d out of range", m.Initial)
	}
	for s, ts := range m.Trans {
		seen := bdd.False
		for i, tr := range ts {
			if len(tr.Out) != m.NumOutputs {
				return fmt.Errorf("fsm: state %d transition %d has %d outputs, want %d",
					s, i, len(tr.Out), m.NumOutputs)
			}
			if tr.Dst != DontCare && (tr.Dst < 0 || tr.Dst >= len(m.Trans)) {
				return fmt.Errorf("fsm: state %d transition %d destination %d out of range", s, i, tr.Dst)
			}
			if tr.Cond == bdd.False {
				return fmt.Errorf("fsm: state %d transition %d has empty condition", s, i)
			}
			if m.Mgr.And(tr.Cond, seen) != bdd.False {
				for j := 0; j < i; j++ {
					if m.Mgr.And(tr.Cond, ts[j].Cond) != bdd.False {
						return fmt.Errorf("fsm: state %d transitions %d and %d overlap", s, j, i)
					}
				}
			}
			seen = m.Mgr.Or(seen, tr.Cond)
		}
	}
	return nil
}

// Lookup finds the transition of state s enabled by the input assignment
// (indexed by input variable); ok is false when the behavior is
// unspecified.
func (m *Machine) Lookup(s int, in []bool) (Transition, bool) {
	for _, tr := range m.Trans[s] {
		if m.Mgr.Eval(tr.Cond, in) {
			return tr, true
		}
	}
	return Transition{}, false
}

// Simulate runs the machine from its initial state over the input stream
// and returns the per-step outputs. Once an unspecified transition is
// hit, all remaining outputs are X.
func (m *Machine) Simulate(stream [][]bool) [][]Tri {
	out := make([][]Tri, len(stream))
	s := m.Initial
	dead := false
	for t, in := range stream {
		row := make([]Tri, m.NumOutputs)
		for i := range row {
			row[i] = X
		}
		if !dead {
			if tr, ok := m.Lookup(s, in); ok {
				copy(row, tr.Out)
				if tr.Dst == DontCare {
					dead = true
				} else {
					s = tr.Dst
				}
			} else {
				dead = true
			}
		}
		out[t] = row
	}
	return out
}

// Atoms returns a partition of the input space refined by every
// transition condition in the machine: within one atom, every state's
// behavior is uniform. It fails once the partition exceeds max cells.
func (m *Machine) Atoms(max int) ([]bdd.Node, error) {
	parts := []bdd.Node{bdd.True}
	seen := make(map[bdd.Node]bool)
	for _, ts := range m.Trans {
		for _, tr := range ts {
			if seen[tr.Cond] {
				continue
			}
			seen[tr.Cond] = true
			var next []bdd.Node
			for _, p := range parts {
				in := m.Mgr.And(p, tr.Cond)
				out := m.Mgr.Diff(p, tr.Cond)
				if in != bdd.False {
					next = append(next, in)
				}
				if out != bdd.False {
					next = append(next, out)
				}
			}
			parts = next
			if len(parts) > max {
				return nil, fmt.Errorf("fsm: atom partition exceeds %d cells", max)
			}
		}
	}
	return parts, nil
}
