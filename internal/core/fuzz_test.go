package core_test

import (
	"reflect"
	"testing"

	"circuitfold/internal/bdd"
	"circuitfold/internal/core"
	"circuitfold/internal/gen"
)

// FuzzDecodeMachine feeds arbitrary bytes to the machine checkpoint
// decoder, which reads blobs back from disk. The contract: it never
// panics, whatever the edges, variables or node order; every machine it
// accepts is valid and re-encodes to a blob that decodes to the same
// machine.
func FuzzDecodeMachine(f *testing.F) {
	for _, tc := range []struct {
		name string
		T    int
	}{{"adder3", 3}, {"i3", 4}} {
		g := gen.MustBuild(tc.name)
		sched, err := core.PinSchedule(g, tc.T, core.ScheduleOptions{})
		if err != nil {
			f.Fatal(err)
		}
		m, states, err := core.TimeFrameFold(g, sched, 0, nil)
		if err != nil {
			f.Fatal(err)
		}
		data, err := core.EncodeMachine(m, states)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"v":2,"inputs":2,"outputs":1,"initial":0,"states":1,"nodes":[[1,0,1],[0,2,3]],"trans":[[{"c":4,"out":"1","dst":0},{"c":5,"out":"-","dst":-1}]]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, states, err := core.DecodeMachine(data)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted an invalid machine: %v", err)
		}
		again, err := core.EncodeMachine(m, states)
		if err != nil {
			t.Fatalf("accepted machine does not re-encode: %v", err)
		}
		m2, states2, err := core.DecodeMachine(again)
		if err != nil {
			t.Fatalf("re-encoded machine does not decode: %v", err)
		}
		if states2 != states || m2.NumInputs != m.NumInputs || m2.NumOutputs != m.NumOutputs ||
			m2.Initial != m.Initial || m2.NumStates() != m.NumStates() {
			t.Fatal("re-encoded machine changed shape")
		}
		ident := make([]int, m.NumInputs)
		for v := range ident {
			ident[v] = v
		}
		back := bdd.NewTranslator(m2.Mgr, m.Mgr, ident)
		for s, ts := range m.Trans {
			if len(m2.Trans[s]) != len(ts) {
				t.Fatalf("state %d: %d transitions, want %d", s, len(m2.Trans[s]), len(ts))
			}
			for i, tr := range ts {
				tr2 := m2.Trans[s][i]
				if tr2.Dst != tr.Dst || !reflect.DeepEqual(tr2.Out, tr.Out) {
					t.Fatalf("state %d transition %d changed", s, i)
				}
				if back.Translate(tr2.Cond) != tr.Cond {
					t.Fatalf("state %d transition %d changed condition", s, i)
				}
			}
		}
	})
}
