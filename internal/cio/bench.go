package cio

import (
	"fmt"
	"io"
	"strings"

	"circuitfold/internal/aig"
	"circuitfold/internal/seq"
)

// ReadBench parses an ISCAS/ITC BENCH netlist: INPUT(x), OUTPUT(y), and
// assignments y = GATE(a, b, ...) with gates AND, OR, NAND, NOR, XOR,
// XNOR, NOT, BUFF/BUF, and DFF (a flip-flop with initial value 0).
func ReadBench(r io.Reader) (*seq.Circuit, error) {
	sc := lineScanner(r)

	var inputs, outputs []string
	type gate struct {
		op       string
		args     []string
		building bool // on the build stack; once built, the gate is in sig
	}
	gates := map[string]*gate{}
	var dffOrder []string

	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		upper := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(upper, "INPUT("):
			inputs = append(inputs, argOf(line))
		case strings.HasPrefix(upper, "OUTPUT("):
			outputs = append(outputs, argOf(line))
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, fmt.Errorf("cio: malformed bench line %q", line)
			}
			name := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.IndexByte(rhs, '(')
			if open < 0 {
				return nil, fmt.Errorf("cio: malformed bench line %q", line)
			}
			op := strings.ToUpper(rhs[:open])
			args := strings.Split(argOf(rhs), ",")
			for i := range args {
				args[i] = strings.TrimSpace(args[i])
			}
			gates[name] = &gate{op: op, args: args}
			if op == "DFF" {
				dffOrder = append(dffOrder, name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	g := aig.New()
	sig := map[string]aig.Lit{}
	for _, in := range inputs {
		sig[in] = g.PI(in)
	}
	for _, d := range dffOrder {
		sig[d] = g.PI(d)
	}

	// build resolves a signal and every gate it depends on, depth first
	// in argument order, with an explicit stack: an uploaded netlist's
	// depth costs heap, not goroutine stack. Each frame's resolved
	// arguments sit on vals from its start; a finished gate pops them,
	// and its parent picks the gate up from sig.
	type frame struct {
		name  string
		gt    *gate
		start int
	}
	var stack []frame
	var vals []aig.Lit
	push := func(name string) error {
		gt, ok := gates[name]
		if !ok {
			return fmt.Errorf("cio: undriven signal %q", name)
		}
		if gt.building {
			return fmt.Errorf("cio: combinational cycle through %q", name)
		}
		gt.building = true
		stack = append(stack, frame{name: name, gt: gt, start: len(vals)})
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
			if i := len(vals) - f.start; i < len(f.gt.args) {
				if l, ok := sig[f.gt.args[i]]; ok {
					vals = append(vals, l)
				} else if err := push(f.gt.args[i]); err != nil {
					return 0, err
				}
				continue
			}
			args := vals[f.start:]
			var l aig.Lit
			switch f.gt.op {
			case "AND":
				l = g.AndN(args...)
			case "NAND":
				l = g.AndN(args...).Not()
			case "OR":
				l = g.OrN(args...)
			case "NOR":
				l = g.OrN(args...).Not()
			case "XOR":
				l = g.XorN(args...)
			case "XNOR":
				l = g.XorN(args...).Not()
			case "NOT":
				l = args[0].Not()
			case "BUFF", "BUF":
				l = args[0]
			default:
				return 0, fmt.Errorf("cio: unsupported gate %q", f.gt.op)
			}
			sig[f.name] = l
			vals = vals[:f.start]
			stack = stack[:len(stack)-1]
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
	next := make([]aig.Lit, len(dffOrder))
	init := make([]bool, len(dffOrder))
	for i, d := range dffOrder {
		l, err := build(gates[d].args[0])
		if err != nil {
			return nil, err
		}
		next[i] = l
	}
	c := &seq.Circuit{G: g, NumInputs: len(inputs), Next: next, Init: init}
	return c, c.Validate()
}

func argOf(s string) string {
	open := strings.IndexByte(s, '(')
	close_ := strings.LastIndexByte(s, ')')
	if open < 0 || close_ < open {
		return ""
	}
	return strings.TrimSpace(s[open+1 : close_])
}
