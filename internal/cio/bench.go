package cio

import (
	"bufio"
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
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)

	var inputs, outputs []string
	type gate struct {
		op   string
		args []string
	}
	gates := map[string]gate{}
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
			gates[name] = gate{op: op, args: args}
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

	building := map[string]bool{}
	var build func(name string) (aig.Lit, error)
	build = func(name string) (aig.Lit, error) {
		if l, ok := sig[name]; ok {
			return l, nil
		}
		gt, ok := gates[name]
		if !ok {
			return 0, fmt.Errorf("cio: undriven signal %q", name)
		}
		if building[name] {
			return 0, fmt.Errorf("cio: combinational cycle through %q", name)
		}
		building[name] = true
		defer delete(building, name)
		args := make([]aig.Lit, len(gt.args))
		for i, a := range gt.args {
			l, err := build(a)
			if err != nil {
				return 0, err
			}
			args[i] = l
		}
		var l aig.Lit
		switch gt.op {
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
			return 0, fmt.Errorf("cio: unsupported gate %q", gt.op)
		}
		sig[name] = l
		return l, nil
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
