// Package job is the fold daemon's service layer: fold requests as
// serializable job specs, a content-addressed per-stage checkpoint
// store (in-memory or file-backed), and a bounded-worker runner that
// executes jobs through the circuitfold engines with live span
// streaming and kill-and-resume semantics. cmd/foldd exposes it over
// HTTP; the package itself is transport-agnostic and fully testable
// in-process.
package job

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"circuitfold"
	"circuitfold/internal/aig"
	"circuitfold/internal/cio"
)

// Fold methods a Spec may name. Empty means MethodFunctional.
const (
	MethodFunctional = "functional"
	MethodStructural = "structural"
	MethodHybrid     = "hybrid"
	MethodSimple     = "simple"
	MethodResilient  = "resilient"
)

// Netlist is an uploaded circuit in one of the cio text formats.
type Netlist struct {
	// Format is "aag", "blif" or "bench" (see cio.Formats).
	Format string `json:"format"`
	// Text is the netlist source.
	Text string `json:"text"`
}

// Spec is a fold job: the circuit (a named benchmark generator or an
// uploaded netlist), the folding number, the method, and the engine
// knobs. The zero knobs select the cheapest configuration, exactly
// like a zero circuitfold.Options. Specs marshal deterministically,
// and Hash names the job's namespace in the store, which holds its
// final snapshot: resubmitting an identical spec to a restarted daemon
// is served from it rather than recomputed.
type Spec struct {
	// Generator names a built-in benchmark circuit (circuitfold.
	// Benchmarks). Exactly one of Generator and Netlist must be set.
	Generator string `json:"generator,omitempty"`
	// Netlist is an uploaded combinational circuit.
	Netlist *Netlist `json:"netlist,omitempty"`
	// T is the folding number.
	T int `json:"t"`
	// Method is the fold engine: functional (default), structural,
	// hybrid, simple, or resilient (the degradation ladder).
	Method string `json:"method,omitempty"`
	// Counter ("nat" or "1hot") selects the structural frame counter
	// encoding; StateEnc the functional state encoding. Empty means
	// "nat".
	Counter  string `json:"counter,omitempty"`
	StateEnc string `json:"state_enc,omitempty"`
	// Reorder enables BDD input reordering; Minimize exact state
	// minimization (functional/hybrid/resilient methods).
	Reorder  bool `json:"reorder,omitempty"`
	Minimize bool `json:"minimize,omitempty"`
	// Workers bounds the fold's internal parallelism (not the daemon's
	// worker pool). 0 is the engine default.
	Workers int `json:"workers,omitempty"`
	// Budgets: wall-clock milliseconds, live BDD nodes, SAT conflicts,
	// TFF states. Zero fields mean engine defaults.
	WallMS          int64 `json:"wall_ms,omitempty"`
	MaxBDDNodes     int   `json:"max_bdd_nodes,omitempty"`
	MaxSATConflicts int64 `json:"max_sat_conflicts,omitempty"`
	MaxStates       int   `json:"max_states,omitempty"`
	// SelfCheckRounds gates resilient folds: rounds of 64-vector
	// random-simulation equivalence checking (0 means 1; negative
	// disables). Ignored by the direct methods.
	SelfCheckRounds int `json:"self_check_rounds,omitempty"`
}

// methods is the closed set Validate accepts.
var methods = map[string]bool{
	"": true, MethodFunctional: true, MethodStructural: true,
	MethodHybrid: true, MethodSimple: true, MethodResilient: true,
}

// Validate checks the spec's shape without building the circuit.
func (s *Spec) Validate() error {
	if s == nil {
		return fmt.Errorf("job: nil spec")
	}
	if (s.Generator == "") == (s.Netlist == nil) {
		return fmt.Errorf("job: spec needs exactly one of generator and netlist")
	}
	if s.Netlist != nil {
		ok := false
		for _, f := range cio.Formats() {
			if s.Netlist.Format == f {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("job: unknown netlist format %q (want one of %v)", s.Netlist.Format, cio.Formats())
		}
	}
	if s.Generator != "" {
		if _, err := circuitfold.LookupBenchmark(s.Generator); err != nil {
			return fmt.Errorf("job: %w", err)
		}
	}
	if s.T < 1 {
		return fmt.Errorf("job: folding number %d < 1", s.T)
	}
	if !methods[s.Method] {
		return fmt.Errorf("job: unknown method %q", s.Method)
	}
	if _, err := parseEncoding(s.Counter); err != nil {
		return fmt.Errorf("job: counter: %w", err)
	}
	if _, err := parseEncoding(s.StateEnc); err != nil {
		return fmt.Errorf("job: state_enc: %w", err)
	}
	return nil
}

// EffectiveMethod is the method with the default applied.
func (s *Spec) EffectiveMethod() string {
	if s.Method == "" {
		return MethodFunctional
	}
	return s.Method
}

// Circuit builds the spec's combinational circuit: the named
// benchmark, or the parsed netlist (which must have no flip-flops —
// folding applies to combinational circuits).
func (s *Spec) Circuit() (*circuitfold.Circuit, error) {
	if s.Generator != "" {
		return circuitfold.Benchmark(s.Generator)
	}
	c, err := cio.ReadNetlist(s.Netlist.Format, strings.NewReader(s.Netlist.Text))
	if err != nil {
		return nil, fmt.Errorf("job: netlist: %w", err)
	}
	if c.NumLatches() != 0 {
		return nil, fmt.Errorf("job: netlist has %d flip-flops; folding takes a combinational circuit", c.NumLatches())
	}
	return c.G, nil
}

// Options maps the spec's knobs onto engine options. Trace is always
// on: the service returns the stage report.
func (s *Spec) Options() circuitfold.Options {
	counter, _ := parseEncoding(s.Counter)
	stateEnc, _ := parseEncoding(s.StateEnc)
	return circuitfold.Options{
		Counter:  counter,
		StateEnc: stateEnc,
		Reorder:  s.Reorder,
		Minimize: s.Minimize,
		Workers:  s.Workers,
		Trace:    true,
		Budget: circuitfold.Budget{
			Wall:         time.Duration(s.WallMS) * time.Millisecond,
			BDDNodes:     s.MaxBDDNodes,
			SATConflicts: s.MaxSATConflicts,
			MaxStates:    s.MaxStates,
		},
	}
}

// Hash is the spec's content address: a hex SHA-256 of its canonical
// JSON encoding, with the method default applied so "functional" and
// "" collide (they are the same job). The job's final snapshot,
// profile and flight record live under this key; its stage blobs live
// under their content addresses in the store-wide stage namespace.
func (s *Spec) Hash() string {
	c := *s
	c.Method = c.EffectiveMethod()
	data, err := json.Marshal(&c)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on one.
		panic(fmt.Sprintf("job: spec hash: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// foldKeyVersion versions the FoldKey derivation: bump it whenever the
// hashed fields or their meaning change, so stale cache entries from an
// older derivation can never serve a new submission.
//
// Version 2: MaxBDDNodes changed meaning. The output-BDD build collects
// dead intermediates, so the arena it bounds no longer counts them, and
// state encoding builds fewer nodes before its sum-of-products
// fallback. Unbudgeted folds are bit-identical to version 1.
const foldKeyVersion = 2

// FoldKey is the job's shared-work content address, the key of the
// runner's result cache. Unlike Hash, which
// fingerprints the spec's wire form, FoldKey hashes the built circuit
// (aig.StructuralHash over the strashed AIG) together with every knob
// that can change the fold's outcome — so an inline netlist and a
// generator spec producing the same AIG collide: they are the same
// fold. Resolved encodings are hashed, so "nat"/"binary"/"" collide
// too. Budgets are included because a tighter budget can change (or
// abort) the result; Workers is deliberately excluded because folds
// are bit-identical for every worker count.
func (s *Spec) FoldKey(g *circuitfold.Circuit) string {
	counter, _ := parseEncoding(s.Counter)
	stateEnc, _ := parseEncoding(s.StateEnc)
	key := struct {
		V               int    `json:"v"`
		AIG             string `json:"aig"`
		T               int    `json:"t"`
		Method          string `json:"method"`
		Counter         int    `json:"counter"`
		StateEnc        int    `json:"state_enc"`
		Reorder         bool   `json:"reorder"`
		Minimize        bool   `json:"minimize"`
		WallMS          int64  `json:"wall_ms"`
		MaxBDDNodes     int    `json:"max_bdd_nodes"`
		MaxSATConflicts int64  `json:"max_sat_conflicts"`
		MaxStates       int    `json:"max_states"`
		SelfCheckRounds int    `json:"self_check_rounds"`
	}{
		V:               foldKeyVersion,
		AIG:             fmt.Sprintf("%016x", aig.StructuralHash(g)),
		T:               s.T,
		Method:          s.EffectiveMethod(),
		Counter:         int(counter),
		StateEnc:        int(stateEnc),
		Reorder:         s.Reorder,
		Minimize:        s.Minimize,
		WallMS:          s.WallMS,
		MaxBDDNodes:     s.MaxBDDNodes,
		MaxSATConflicts: s.MaxSATConflicts,
		MaxStates:       s.MaxStates,
		SelfCheckRounds: s.SelfCheckRounds,
	}
	data, err := json.Marshal(&key)
	if err != nil {
		panic(fmt.Sprintf("job: fold key: %v", err)) // plain data; cannot fail
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// parseEncoding maps the wire names onto circuitfold encodings.
func parseEncoding(name string) (circuitfold.Encoding, error) {
	switch name {
	case "", "nat", "binary":
		return circuitfold.Binary, nil
	case "1hot", "onehot":
		return circuitfold.OneHot, nil
	}
	return circuitfold.Binary, fmt.Errorf("unknown encoding %q (want nat or 1hot)", name)
}
