package core

import (
	"encoding/json"
	"fmt"

	"circuitfold/internal/aig"
	"circuitfold/internal/bdd"
	"circuitfold/internal/fsm"
	"circuitfold/internal/pipeline"
	"circuitfold/internal/seq"
)

// This file is the serialization boundary that lets fold artifacts
// cross a wire or survive a crash: a versioned, exact JSON codec for
// Result (the daemon's job output and the encode/sweep-stage
// checkpoint), for Schedule (the schedule-stage checkpoint), and for
// the folded ISFSM (the tff/minimize-stage checkpoints).
//
// "Exact" is load-bearing. Decoding an encoded Result replays the
// AIG's node table in creation order, so node ids, literal values and
// pin names are bit-identical to the original — which is what lets a
// resumed job produce a Result indistinguishable from an uninterrupted
// run, and what makes result equality testable with reflect.DeepEqual.
// Machine conditions are serialized as one shared BDD node table, each
// distinct node written once, so a checkpoint is linear in the BDD size
// rather than in its path count, which can be exponential. Decoding
// rebuilds exactly the same Boolean functions over a fresh manager;
// downstream stages only depend on the conditions as functions, so
// encode/minimize behave identically after a restore.

// ResultCodecVersion is the current wire version of EncodeResult. A
// decoder rejects versions it does not know rather than guessing.
const ResultCodecVersion = 1

// seqJSON is the exact wire form of a seq.Circuit: the node table in
// creation order (PIs by id, AND fanins in ascending id order), output
// literals, latch next-state literals and initial values. Replaying it
// through aig.Graph reconstructs identical node ids because the graph
// builder assigns ids sequentially and the table is topologically
// ordered by construction.
type seqJSON struct {
	Inputs  int         `json:"inputs"`
	Nodes   int         `json:"nodes"` // total node count, including the constant node 0
	PIs     []int       `json:"pis,omitempty"`
	PINames []string    `json:"pi_names,omitempty"`
	Ands    [][2]uint32 `json:"ands,omitempty"`
	POs     []uint32    `json:"pos,omitempty"`
	PONames []string    `json:"po_names,omitempty"`
	Next    []uint32    `json:"next,omitempty"`
	Init    []bool      `json:"init,omitempty"`
}

func encodeSeq(c *seq.Circuit) (*seqJSON, error) {
	if c == nil || c.G == nil {
		return nil, fmt.Errorf("core: cannot encode nil circuit")
	}
	g := c.G
	sj := &seqJSON{Inputs: c.NumInputs, Nodes: g.NumNodes()}
	for i := 0; i < g.NumPIs(); i++ {
		sj.PIs = append(sj.PIs, g.PILit(i).Node())
		sj.PINames = append(sj.PINames, g.PIName(i))
	}
	for id := 1; id < g.NumNodes(); id++ {
		if g.IsAnd(id) {
			f0, f1 := g.Fanins(id)
			sj.Ands = append(sj.Ands, [2]uint32{uint32(f0), uint32(f1)})
		}
	}
	for i := 0; i < g.NumPOs(); i++ {
		sj.POs = append(sj.POs, uint32(g.PO(i)))
		sj.PONames = append(sj.PONames, g.POName(i))
	}
	for _, n := range c.Next {
		sj.Next = append(sj.Next, uint32(n))
	}
	sj.Init = append(sj.Init, c.Init...)
	return sj, nil
}

func decodeSeq(sj *seqJSON) (*seq.Circuit, error) {
	if sj == nil {
		return nil, fmt.Errorf("core: missing circuit")
	}
	if len(sj.PIs) != len(sj.PINames) {
		return nil, fmt.Errorf("core: %d PIs with %d names", len(sj.PIs), len(sj.PINames))
	}
	if len(sj.POs) != len(sj.PONames) {
		return nil, fmt.Errorf("core: %d POs with %d names", len(sj.POs), len(sj.PONames))
	}
	g := aig.New()
	pi, and := 0, 0
	for id := 1; id < sj.Nodes; id++ {
		if pi < len(sj.PIs) && sj.PIs[pi] == id {
			got := g.PI(sj.PINames[pi])
			if got.Node() != id {
				return nil, fmt.Errorf("core: PI %d replayed to node %d, want %d", pi, got.Node(), id)
			}
			pi++
			continue
		}
		if and >= len(sj.Ands) {
			return nil, fmt.Errorf("core: node %d has no definition", id)
		}
		f0, f1 := aig.Lit(sj.Ands[and][0]), aig.Lit(sj.Ands[and][1])
		and++
		if f0.Node() >= id || f1.Node() >= id {
			return nil, fmt.Errorf("core: node %d has forward fanin", id)
		}
		got := g.And(f0, f1)
		if got.Node() != id || got.Compl() {
			// The And builder strashes and simplifies; a table that does
			// not replay node-for-node was not produced by encodeSeq.
			return nil, fmt.Errorf("core: AND %d replayed to %v, want node %d", id, got, id)
		}
	}
	if pi != len(sj.PIs) || and != len(sj.Ands) {
		return nil, fmt.Errorf("core: node table mismatch (%d/%d PIs, %d/%d ANDs)",
			pi, len(sj.PIs), and, len(sj.Ands))
	}
	for i, l := range sj.POs {
		if aig.Lit(l).Node() >= g.NumNodes() {
			return nil, fmt.Errorf("core: PO %d out of range", i)
		}
		g.AddPO(aig.Lit(l), sj.PONames[i])
	}
	next := make([]aig.Lit, len(sj.Next))
	for i, l := range sj.Next {
		if aig.Lit(l).Node() >= g.NumNodes() {
			return nil, fmt.Errorf("core: next-state literal %d out of range", i)
		}
		next[i] = aig.Lit(l)
	}
	c := &seq.Circuit{G: g, NumInputs: sj.Inputs, Next: next, Init: append([]bool(nil), sj.Init...)}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// resultJSON is the versioned wire form of a Result.
type resultJSON struct {
	V         int              `json:"v"`
	T         int              `json:"t"`
	InSched   [][]int          `json:"in_sched"`
	OutSched  [][]int          `json:"out_sched"`
	States    int              `json:"states,omitempty"`
	StatesMin int              `json:"states_min,omitempty"`
	Seq       *seqJSON         `json:"seq"`
	Report    *pipeline.Report `json:"report,omitempty"`
}

// EncodeResult serializes a fold result as versioned JSON that
// DecodeResult rebuilds bit-identically: same node ids, literals, pin
// schedules, state counts and report. This is the wire format of the
// foldd job API and of the encode/sweep stage checkpoints.
func EncodeResult(r *Result) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("core: cannot encode nil result")
	}
	sj, err := encodeSeq(r.Seq)
	if err != nil {
		return nil, err
	}
	return json.Marshal(&resultJSON{
		V:         ResultCodecVersion,
		T:         r.T,
		InSched:   r.InSched,
		OutSched:  r.OutSched,
		States:    r.States,
		StatesMin: r.StatesMin,
		Seq:       sj,
		Report:    r.Report,
	})
}

// DecodeResult parses EncodeResult's output.
func DecodeResult(data []byte) (*Result, error) {
	var rj resultJSON
	if err := json.Unmarshal(data, &rj); err != nil {
		return nil, fmt.Errorf("core: decode result: %w", err)
	}
	if rj.V != ResultCodecVersion {
		return nil, fmt.Errorf("core: result codec version %d, this build reads %d", rj.V, ResultCodecVersion)
	}
	c, err := decodeSeq(rj.Seq)
	if err != nil {
		return nil, err
	}
	r := &Result{
		Seq:       c,
		T:         rj.T,
		InSched:   rj.InSched,
		OutSched:  rj.OutSched,
		States:    rj.States,
		StatesMin: rj.StatesMin,
		Report:    rj.Report,
	}
	if err := r.Validate(maxSchedRef(r.InSched)+1, maxSchedRef(r.OutSched)+1); err != nil {
		return nil, err
	}
	return r, nil
}

// maxSchedRef returns the largest index referenced by a schedule, -1
// when it references none. Decoding has no original circuit to validate
// against, so the schedule's own span is the tightest bound available.
func maxSchedRef(sched [][]int) int {
	max := -1
	for _, row := range sched {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	return max
}

// scheduleJSON is the versioned wire form of a Schedule (the
// schedule-stage checkpoint). All fields are plain data, so the codec
// is trivially exact.
type scheduleJSON struct {
	V int       `json:"v"`
	S *Schedule `json:"s"`
}

// EncodeSchedule serializes a pin schedule for checkpointing.
func EncodeSchedule(s *Schedule) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("core: cannot encode nil schedule")
	}
	return json.Marshal(&scheduleJSON{V: ResultCodecVersion, S: s})
}

// DecodeSchedule parses EncodeSchedule's output.
func DecodeSchedule(data []byte) (*Schedule, error) {
	var sj scheduleJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return nil, fmt.Errorf("core: decode schedule: %w", err)
	}
	if sj.V != ResultCodecVersion {
		return nil, fmt.Errorf("core: schedule codec version %d, this build reads %d", sj.V, ResultCodecVersion)
	}
	if sj.S == nil {
		return nil, fmt.Errorf("core: decode schedule: missing payload")
	}
	return sj.S, nil
}

// MachineCodecVersion is the wire version of EncodeMachine, separate
// from ResultCodecVersion so the machine format can change without
// invalidating final snapshots and cached results. A blob of another
// version (version 1 stored cube covers) fails DecodeMachine, and its
// stage re-runs.
const MachineCodecVersion = 2

// maxMachineInputs caps the input count DecodeMachine accepts, so a
// corrupt count cannot size a huge BDD manager. A checkpoint over more
// inputs than this fails to restore and its stage re-runs.
const maxMachineInputs = 1 << 16

// transJSON is one symbolic transition: the condition's root edge into
// the machine's node table, the three-valued output vector as a
// '0'/'1'/'-' string, and the destination state (DontCare = -1).
type transJSON struct {
	Cond uint32 `json:"c"`
	Out  string `json:"out"`
	Dst  int    `json:"dst"`
}

// machineJSON is the versioned wire form of a folded ISFSM (the
// tff/minimize-stage checkpoint). States carries Result.States — the
// raw time-frame-folding state count including the don't-care final
// state — alongside the machine, because the tff stage produces both.
//
// Nodes is the shared BDD node table of every transition condition:
// entry i-1 is node i as (var, lo edge, hi edge). An edge is
// index<<1 | complement, where index 0 is the terminal, so edge 0 is
// False and edge 1 is True. Every edge points to an earlier entry and
// every node's variable is strictly smaller than its children's, which
// is the order of a fresh bdd.New(Inputs) manager.
type machineJSON struct {
	V       int           `json:"v"`
	Inputs  int           `json:"inputs"`
	Outputs int           `json:"outputs"`
	Initial int           `json:"initial"`
	States  int           `json:"states"`
	Nodes   [][3]uint32   `json:"nodes"`
	Trans   [][]transJSON `json:"trans"`
}

// nodeTable numbers the regular nodes of a manager in first-visit
// post-order, so children always precede their parents.
type nodeTable struct {
	mgr    *bdd.Manager
	inputs uint32
	index  []uint32 // arena slot -> table index, 0 = not yet emitted
	nodes  [][3]uint32
}

// edge returns n's edge into the table, emitting its missing nodes
// (lo before hi).
func (t *nodeTable) edge(n bdd.Node) (uint32, error) {
	if t.mgr.IsTerminal(n) {
		return uint32(n), nil
	}
	r, c := bdd.Regular(n), uint32(n&1)
	if i := t.index[r>>1]; i != 0 {
		return i<<1 | c, nil
	}
	v := uint32(t.mgr.TopVar(r))
	if v >= t.inputs {
		return 0, fmt.Errorf("core: condition depends on variable %d of %d inputs", v, t.inputs)
	}
	lo, err := t.edge(t.mgr.Lo(r))
	if err != nil {
		return 0, err
	}
	hi, err := t.edge(t.mgr.Hi(r))
	if err != nil {
		return 0, err
	}
	for _, e := range [2]uint32{lo, hi} {
		if e > 1 && t.nodes[e>>1-1][0] <= v {
			return 0, fmt.Errorf("core: machine manager is not in variable-index order")
		}
	}
	t.nodes = append(t.nodes, [3]uint32{v, lo, hi})
	i := uint32(len(t.nodes))
	t.index[r>>1] = i
	return i<<1 | c, nil
}

// EncodeMachine serializes a machine and the accompanying raw state
// count. Transition structure (state order, transition order, outputs,
// destinations) is preserved 1:1; the conditions are written once as a
// shared node table, so the blob grows linearly with their BDD size.
// The walk visits states, then transitions, in order, so the same
// machine always encodes to the same bytes.
func EncodeMachine(m *fsm.Machine, states int) ([]byte, error) {
	if m == nil {
		return nil, fmt.Errorf("core: cannot encode nil machine")
	}
	t := &nodeTable{mgr: m.Mgr, inputs: uint32(m.NumInputs), index: make([]uint32, m.Mgr.NumNodes())}
	mj := &machineJSON{
		V:       MachineCodecVersion,
		Inputs:  m.NumInputs,
		Outputs: m.NumOutputs,
		Initial: m.Initial,
		States:  states,
		Trans:   make([][]transJSON, m.NumStates()),
	}
	for s, ts := range m.Trans {
		mj.Trans[s] = make([]transJSON, len(ts))
		for i, tr := range ts {
			cond, err := t.edge(tr.Cond)
			if err != nil {
				return nil, err
			}
			out := make([]byte, len(tr.Out))
			for o, v := range tr.Out {
				out[o] = v.String()[0]
			}
			mj.Trans[s][i] = transJSON{Cond: cond, Out: string(out), Dst: tr.Dst}
		}
	}
	mj.Nodes = t.nodes
	return json.Marshal(mj)
}

// DecodeMachine parses EncodeMachine's output into a fresh machine
// (over a fresh BDD manager) plus the raw state count. The node table
// is rebuilt bottom-up; it is checked first so that every node costs
// one constant-time Ite, whatever the blob holds.
func DecodeMachine(data []byte) (*fsm.Machine, int, error) {
	var mj machineJSON
	if err := json.Unmarshal(data, &mj); err != nil {
		return nil, 0, fmt.Errorf("core: decode machine: %w", err)
	}
	if mj.V != MachineCodecVersion {
		return nil, 0, fmt.Errorf("core: machine codec version %d, this build reads %d", mj.V, MachineCodecVersion)
	}
	if mj.Inputs < 0 || mj.Inputs > maxMachineInputs || mj.Outputs < 0 {
		return nil, 0, fmt.Errorf("core: machine with %d inputs and %d outputs", mj.Inputs, mj.Outputs)
	}
	mgr := bdd.New(mj.Inputs)
	built := make([]bdd.Node, len(mj.Nodes)+1) // built[0] is the terminal
	edge := func(e uint32) bdd.Node { return built[e>>1] ^ bdd.Node(e&1) }
	for i, n := range mj.Nodes {
		v, lo, hi := n[0], n[1], n[2]
		if v >= uint32(mj.Inputs) {
			return nil, 0, fmt.Errorf("core: node %d has variable %d of %d inputs", i+1, v, mj.Inputs)
		}
		for _, e := range [2]uint32{lo, hi} {
			if int(e>>1) > i {
				return nil, 0, fmt.Errorf("core: node %d has forward edge %d", i+1, e)
			}
			if e > 1 && mj.Nodes[e>>1-1][0] <= v {
				return nil, 0, fmt.Errorf("core: node %d is not above its children", i+1)
			}
		}
		built[i+1] = mgr.Ite(mgr.Var(int(v)), edge(hi), edge(lo))
	}
	m := &fsm.Machine{
		Mgr:        mgr,
		NumInputs:  mj.Inputs,
		NumOutputs: mj.Outputs,
		Initial:    mj.Initial,
		Trans:      make([][]fsm.Transition, len(mj.Trans)),
	}
	for s, ts := range mj.Trans {
		m.Trans[s] = make([]fsm.Transition, len(ts))
		for i, tj := range ts {
			if int(tj.Cond>>1) > len(mj.Nodes) {
				return nil, 0, fmt.Errorf("core: condition edge %d out of range", tj.Cond)
			}
			if len(tj.Out) != mj.Outputs {
				return nil, 0, fmt.Errorf("core: output vector %q does not match %d outputs", tj.Out, mj.Outputs)
			}
			out := make([]fsm.Tri, mj.Outputs)
			for o, ch := range []byte(tj.Out) {
				switch ch {
				case '0':
					out[o] = fsm.Zero
				case '1':
					out[o] = fsm.One
				case '-':
					out[o] = fsm.X
				default:
					return nil, 0, fmt.Errorf("core: bad output character %q", string(ch))
				}
			}
			m.Trans[s][i] = fsm.Transition{Cond: edge(tj.Cond), Out: out, Dst: tj.Dst}
		}
	}
	if err := m.Validate(); err != nil {
		return nil, 0, err
	}
	return m, mj.States, nil
}
