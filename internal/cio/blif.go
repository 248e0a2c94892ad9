// Package cio reads and writes circuit interchange formats: BLIF (read/
// write), ISCAS BENCH (read), and ASCII AIGER .aag (read/write), covering
// both combinational and sequential circuits. It is the bridge between
// this library and standard EDA toolflows.
package cio

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"circuitfold/internal/aig"
	"circuitfold/internal/seq"
)

// WriteBLIF writes the sequential circuit in Berkeley Logic Interchange
// Format. AND nodes become two-input .names tables; complemented edges
// are folded into the table rows.
func WriteBLIF(w io.Writer, c *seq.Circuit, model string) error {
	bw := bufio.NewWriter(w)
	g := c.G
	name := func(l aig.Lit) string { return fmt.Sprintf("n%d", l.Node()) }

	fmt.Fprintf(bw, ".model %s\n", model)
	fmt.Fprint(bw, ".inputs")
	for i := 0; i < c.NumInputs; i++ {
		fmt.Fprintf(bw, " %s", sanitize(g.PIName(i)))
	}
	fmt.Fprintln(bw)
	fmt.Fprint(bw, ".outputs")
	for i := 0; i < g.NumPOs(); i++ {
		fmt.Fprintf(bw, " %s", sanitize(g.POName(i)))
	}
	fmt.Fprintln(bw)
	for i := 0; i < c.NumLatches(); i++ {
		fmt.Fprintf(bw, ".latch lin%d lout%d %d\n", i, i, b2i(c.Init[i]))
	}
	// Constant-zero net for anything referencing the constant node.
	fmt.Fprintf(bw, ".names n0\n") // empty table = constant 0

	// Input nets alias the PI names; latch outputs alias lout nets.
	for i := 0; i < g.NumPIs(); i++ {
		id := g.PILit(i).Node()
		if i < c.NumInputs {
			fmt.Fprintf(bw, ".names %s n%d\n1 1\n", sanitize(g.PIName(i)), id)
		} else {
			fmt.Fprintf(bw, ".names lout%d n%d\n1 1\n", i-c.NumInputs, id)
		}
	}
	for id := 1; id < g.NumNodes(); id++ {
		if !g.IsAnd(id) {
			continue
		}
		f0, f1 := g.Fanins(id)
		r0, r1 := byte('1'), byte('1')
		if f0.Compl() {
			r0 = '0'
		}
		if f1.Compl() {
			r1 = '0'
		}
		fmt.Fprintf(bw, ".names %s %s n%d\n%c%c 1\n", name(f0), name(f1), id, r0, r1)
	}
	emitLit := func(target string, l aig.Lit) {
		if l == aig.Const0 {
			fmt.Fprintf(bw, ".names %s\n", target)
		} else if l == aig.Const1 {
			fmt.Fprintf(bw, ".names %s\n1\n", target)
		} else if l.Compl() {
			fmt.Fprintf(bw, ".names %s %s\n0 1\n", name(l), target)
		} else {
			fmt.Fprintf(bw, ".names %s %s\n1 1\n", name(l), target)
		}
	}
	for i := 0; i < g.NumPOs(); i++ {
		emitLit(sanitize(g.POName(i)), g.PO(i))
	}
	for i, n := range c.Next {
		emitLit(fmt.Sprintf("lin%d", i), n)
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

func sanitize(s string) string {
	if s == "" {
		return "_"
	}
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '=', '#':
			return '_'
		}
		return r
	}, s)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ReadBLIF parses a single-model BLIF file into a sequential circuit.
// .names tables may have multiple cubes and '-' don't-cares; latches use
// the 3-or-5 token form.
func ReadBLIF(r io.Reader) (*seq.Circuit, error) {
	sc := lineScanner(r)

	var inputs, outputs []string
	type latch struct {
		in, out string
		init    bool
	}
	var latches []latch
	type table struct {
		ins      []string
		out      string
		cubes    []string // "10-" style rows that output 1
		building bool     // on the build stack; once built, out is in sig
	}
	var tables []table
	var cur *table

	// Join continuation lines ending in backslash.
	var lines []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		for strings.HasSuffix(line, "\\") && sc.Scan() {
			line = strings.TrimSuffix(line, "\\") + " " + strings.TrimSpace(sc.Text())
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	flush := func() {
		if cur != nil {
			tables = append(tables, *cur)
			cur = nil
		}
	}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue // a continuation that joined to nothing
		}
		switch f[0] {
		case ".model":
			// ignored
		case ".inputs":
			flush()
			inputs = append(inputs, f[1:]...)
		case ".outputs":
			flush()
			outputs = append(outputs, f[1:]...)
		case ".latch":
			flush()
			if len(f) < 3 {
				return nil, fmt.Errorf("cio: malformed .latch: %q", line)
			}
			l := latch{in: f[1], out: f[2]}
			last := f[len(f)-1]
			if last == "1" {
				l.init = true
			}
			latches = append(latches, l)
		case ".names":
			flush()
			if len(f) < 2 {
				return nil, fmt.Errorf("cio: .names without an output: %q", line)
			}
			cur = &table{ins: f[1 : len(f)-1], out: f[len(f)-1]}
		case ".end":
			flush()
		default:
			if cur == nil {
				return nil, fmt.Errorf("cio: unexpected line %q", line)
			}
			if len(cur.ins) == 0 {
				if f[0] == "1" {
					cur.cubes = append(cur.cubes, "")
				}
				continue
			}
			if len(f) != 2 {
				return nil, fmt.Errorf("cio: malformed cube %q", line)
			}
			if f[1] == "1" {
				cur.cubes = append(cur.cubes, f[0])
			} else if f[1] != "0" {
				return nil, fmt.Errorf("cio: bad cube output %q", line)
			}
			// Off-set cubes in a mixed table are not supported; pure
			// off-set tables read as constant 0 via no on-cubes.
		}
	}
	flush()

	g := aig.New()
	sig := map[string]aig.Lit{}
	for _, in := range inputs {
		sig[in] = g.PI(in)
	}
	for _, l := range latches {
		sig[l.out] = g.PI(l.out)
	}

	byOut := map[string]*table{}
	for i := range tables {
		byOut[tables[i].out] = &tables[i]
	}
	// build resolves a signal and every table it depends on, depth
	// first in cube and column order, with an explicit stack: an
	// uploaded netlist's depth costs heap, not goroutine stack. A frame
	// walks its table one cube character at a time, ANDing each input
	// into the cube's term as soon as that input resolves; finished
	// cube terms sit on vals from the frame's start.
	type frame struct {
		t     *table
		cube  int     // the cube being built
		pos   int     // byte offset of its next character
		term  aig.Lit // its product so far
		start int
	}
	var stack []frame
	var vals []aig.Lit
	push := func(name string) error {
		t, ok := byOut[name]
		if !ok {
			return fmt.Errorf("cio: undriven signal %q", name)
		}
		if t.building {
			return fmt.Errorf("cio: combinational cycle through %q", name)
		}
		t.building = true
		stack = append(stack, frame{t: t, term: aig.Const1, start: len(vals)})
		return nil
	}
	build := func(name string) (aig.Lit, error) {
		if l, ok := sig[name]; ok {
			return l, nil
		}
		if err := push(name); err != nil {
			return 0, err
		}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			t := f.t
			if f.cube == len(t.cubes) {
				l := g.OrN(vals[f.start:]...)
				if len(t.ins) == 0 && len(t.cubes) > 0 {
					l = aig.Const1
				}
				sig[t.out] = l
				vals = vals[:f.start]
				stack = stack[:len(stack)-1]
				continue
			}
			cube := t.cubes[f.cube]
			if len(cube) != len(t.ins) {
				return 0, fmt.Errorf("cio: cube width mismatch in table %q", t.out)
			}
			if f.pos == len(cube) {
				vals = append(vals, f.term)
				f.cube, f.pos, f.term = f.cube+1, 0, aig.Const1
				continue
			}
			in, ok := sig[t.ins[f.pos]]
			if !ok {
				if err := push(t.ins[f.pos]); err != nil {
					return 0, err
				}
				continue
			}
			ch, w := utf8.DecodeRuneInString(cube[f.pos:])
			switch ch {
			case '1':
				f.term = g.And(f.term, in)
			case '0':
				f.term = g.And(f.term, in.Not())
			case '-':
			default:
				return 0, fmt.Errorf("cio: bad cube char %q", string(ch))
			}
			f.pos += w
		}
		return sig[name], nil
	}
	for _, out := range outputs {
		l, err := build(out)
		if err != nil {
			return nil, err
		}
		g.AddPO(l, out)
	}
	next := make([]aig.Lit, len(latches))
	init := make([]bool, len(latches))
	for i, l := range latches {
		n, err := build(l.in)
		if err != nil {
			return nil, err
		}
		next[i] = n
		init[i] = l.init
	}
	c := &seq.Circuit{G: g, NumInputs: len(inputs), Next: next, Init: init}
	return c, c.Validate()
}
