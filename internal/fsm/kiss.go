package fsm

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"circuitfold/internal/bdd"
)

// WriteKISS writes the machine in KISS2 format, the FSM interchange
// format consumed by MeMin and classic sequential synthesis tools.
// Symbolic transition conditions are expanded into input cubes (one KISS
// row per BDD path), don't-care destinations are written as "*", and
// unspecified outputs as "-".
func WriteKISS(w io.Writer, m *Machine) error {
	bw := bufio.NewWriter(w)
	rows := 0
	var lines []string
	for s, ts := range m.Trans {
		for _, tr := range ts {
			for _, cube := range Cubes(m.Mgr, tr.Cond, m.NumInputs) {
				dst := "*"
				if tr.Dst != DontCare {
					dst = fmt.Sprintf("s%d", tr.Dst)
				}
				var out strings.Builder
				for _, v := range tr.Out {
					out.WriteString(v.String())
				}
				lines = append(lines, fmt.Sprintf("%s s%d %s %s", cube, s, dst, out.String()))
				rows++
			}
		}
	}
	fmt.Fprintf(bw, ".i %d\n.o %d\n.p %d\n.s %d\n.r s%d\n",
		m.NumInputs, m.NumOutputs, rows, m.NumStates(), m.Initial)
	for _, l := range lines {
		fmt.Fprintln(bw, l)
	}
	fmt.Fprintln(bw, ".e")
	return bw.Flush()
}

// Cubes expands a BDD into a disjoint cover of input cubes ('0', '1',
// '-' per variable position); one cube per path to the True terminal.
// The disjunction of the cubes is exactly f, which is what the KISS
// and DOT exports rely on to print symbolic transition conditions
// losslessly. The cover can be exponential in the BDD size, so it is
// for human-readable exports only; checkpoints store the BDD itself
// (see core.EncodeMachine).
func Cubes(mgr *bdd.Manager, f bdd.Node, numInputs int) []string {
	var out []string
	cube := make([]byte, numInputs)
	for i := range cube {
		cube[i] = '-'
	}
	var walk func(n bdd.Node)
	walk = func(n bdd.Node) {
		if n == bdd.False {
			return
		}
		if n == bdd.True {
			out = append(out, string(cube))
			return
		}
		v := mgr.TopVar(n)
		cube[v] = '0'
		walk(mgr.Lo(n))
		cube[v] = '1'
		walk(mgr.Hi(n))
		cube[v] = '-'
	}
	walk(f)
	return out
}

// ReadKISS parses a KISS2 machine. State names are arbitrary strings;
// "*" (or a missing row) leaves behavior unspecified.
func ReadKISS(r io.Reader) (*Machine, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var numIn, numOut int
	reset := ""
	type row struct {
		cube, src, dst, out string
	}
	var rows []row
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case ".i":
			fmt.Sscanf(f[1], "%d", &numIn)
		case ".o":
			fmt.Sscanf(f[1], "%d", &numOut)
		case ".p", ".s":
			// advisory counts
		case ".r":
			if len(f) > 1 {
				reset = f[1]
			}
		case ".e", ".end":
			// done
		default:
			if len(f) != 4 {
				return nil, fmt.Errorf("fsm: malformed KISS row %q", line)
			}
			rows = append(rows, row{f[0], f[1], f[2], f[3]})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if numIn == 0 && len(rows) > 0 {
		numIn = len(rows[0].cube)
	}
	if numOut == 0 && len(rows) > 0 {
		numOut = len(rows[0].out)
	}

	mgr := bdd.New(numIn)
	stateID := map[string]int{}
	idOf := func(name string) int {
		if name == "*" {
			return DontCare
		}
		if id, ok := stateID[name]; ok {
			return id
		}
		id := len(stateID)
		stateID[name] = id
		return id
	}
	if reset != "" {
		idOf(reset)
	}
	// First pass: assign state ids in order of appearance.
	for _, rw := range rows {
		idOf(rw.src)
		if rw.dst != "*" {
			idOf(rw.dst)
		}
	}
	trans := make([][]Transition, len(stateID))
	for _, rw := range rows {
		if len(rw.cube) != numIn {
			return nil, fmt.Errorf("fsm: cube %q does not match .i %d", rw.cube, numIn)
		}
		if len(rw.out) != numOut {
			return nil, fmt.Errorf("fsm: outputs %q do not match .o %d", rw.out, numOut)
		}
		cond := bdd.True
		for i, ch := range rw.cube {
			switch ch {
			case '0':
				cond = mgr.And(cond, mgr.NVar(i))
			case '1':
				cond = mgr.And(cond, mgr.Var(i))
			case '-':
			default:
				return nil, fmt.Errorf("fsm: bad cube character %q", string(ch))
			}
		}
		out := make([]Tri, numOut)
		for i, ch := range rw.out {
			switch ch {
			case '0':
				out[i] = Zero
			case '1':
				out[i] = One
			case '-':
				out[i] = X
			default:
				return nil, fmt.Errorf("fsm: bad output character %q", string(ch))
			}
		}
		src := idOf(rw.src)
		trans[src] = append(trans[src], Transition{Cond: cond, Out: out, Dst: idOf(rw.dst)})
	}
	initial := 0
	if reset != "" {
		initial = stateID[reset]
	}
	m := &Machine{Mgr: mgr, NumInputs: numIn, NumOutputs: numOut, Initial: initial, Trans: trans}
	return m, m.Validate()
}

// WriteDOT renders the machine as a Graphviz state diagram in the style
// of the paper's Figure 6: states as circles (the initial one marked),
// edges labeled "inputs/outputs" with one label per transition cube.
func WriteDOT(w io.Writer, m *Machine, name string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=LR;\n  init [shape=point];\n", name)
	for s := range m.Trans {
		fmt.Fprintf(bw, "  s%d [shape=circle];\n", s)
	}
	fmt.Fprintf(bw, "  dc [shape=doublecircle label=\"*\"];\n")
	fmt.Fprintf(bw, "  init -> s%d;\n", m.Initial)
	for s, ts := range m.Trans {
		for _, tr := range ts {
			dst := "dc"
			if tr.Dst != DontCare {
				dst = fmt.Sprintf("s%d", tr.Dst)
			}
			var out strings.Builder
			for _, v := range tr.Out {
				out.WriteString(v.String())
			}
			for _, cube := range Cubes(m.Mgr, tr.Cond, m.NumInputs) {
				fmt.Fprintf(bw, "  s%d -> %s [label=\"%s/%s\"];\n", s, dst, cube, out.String())
			}
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
