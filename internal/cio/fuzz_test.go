package cio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// FuzzReadNetlist feeds arbitrary text to every format behind
// ReadNetlist, the parser of the fold daemon's netlist uploads. The
// contract: no input panics it, and every circuit it accepts passes its
// own validation and simulates a cycle.
func FuzzReadNetlist(f *testing.F) {
	c := randomSeq(rand.New(rand.NewSource(11)), 4, 3, 2, 12)
	var aag, blif bytes.Buffer
	if err := WriteAAG(&aag, c); err != nil {
		f.Fatal(err)
	}
	if err := WriteBLIF(&blif, c, "m"); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), aag.String())
	f.Add(uint8(0), "aag 1 1 0 1 0\n2\n")
	f.Add(uint8(1), blif.String())
	f.Add(uint8(1), ".model dc\n.inputs a b c\n.outputs f\n.names a b c f\n1-0 1\n01- 1\n.end")
	f.Add(uint8(1), ".model x\n.inputs a\n.outputs f\n.names f g\n1 1\n.names g f\n1 1\n.end")
	f.Add(uint8(2), "# small bench\nINPUT(a)\nINPUT(b)\nOUTPUT(f)\nOUTPUT(q)\nn1 = NAND(a, b)\nn2 = XOR(a, n1)\nf = NOT(n2)\nq = DFF(f)\n")
	f.Add(uint8(2), "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(f)\nf = OR(a, b, c)\n")
	f.Add(uint8(2), "OUTPUT(f)\nf = FROB(a)\nINPUT(a)\n")

	formats := Formats()
	f.Fuzz(func(t *testing.T, format uint8, text string) {
		got, err := ReadNetlist(formats[int(format)%len(formats)], strings.NewReader(text))
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted an invalid circuit: %v", err)
		}
		got.Step(make([]bool, got.NumLatches()), make([]bool, got.NumInputs))
	})
}
