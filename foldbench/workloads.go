package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"circuitfold"
	"circuitfold/internal/cio"
	"circuitfold/internal/job"
	"circuitfold/internal/seq"
)

// input is one job submission: the spec, the exact POST body, and the
// fold key the runner will derive from it (computed here so the output
// check can group results without trusting the service).
type input struct {
	Spec    job.Spec
	Body    []byte
	FoldKey string
	circuit *circuitfold.Circuit // the source circuit the result is checked against
}

// workload is everything one run submits. Jobs is the fixed, timed job
// list of one round; Prepare is submitted during set-up and waited on
// before timing starts: warm-up folds disjoint from Jobs on the cold
// workloads, the priming folds of every hot key on resubmit-hot.
type workload struct {
	Name    string
	Clients int
	Jobs    []input
	Prepare []input
	// Hot marks a workload on which every timed job must be a cache hit.
	Hot bool
}

// workloadNames lists the workloads in BENCHMARK.json order. A third,
// structural-upload (random netlists uploaded and folded structurally),
// was dropped: its per-job fsyncs and full CPU load made its timings
// spread 15-20% between runs of one seed on a shared 2-CPU host.
var workloadNames = []string{"table3-functional", "resubmit-hot"}

// buildWorkload generates a workload's inputs. They are a pure function
// of (name, seed, small): small shrinks the job lists for tests.
func buildWorkload(name string, seed int64, small bool, foldWorkers int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var w *workload
	var err error
	switch name {
	case "table3-functional":
		w, err = table3Functional(rng, small, foldWorkers)
	case "resubmit-hot":
		w, err = resubmitHot(rng, small, foldWorkers)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	w.Name = name
	return w, nil
}

// t3Row is one block of table3-functional: a Table III circuit at one
// folding number, crossed with BDD reordering off/on and each listed
// state encoding. Every configuration here folds in under a second
// and inside every engine limit with no wall budget, so its success
// does not depend on timing. Left out on purpose, besides what the
// engines reject or stop at a budget (C7552, the 64-/128-adder at T=4,
// i6/i7 at T<=8, minimize on apex2, toolarge, i3 at T=16, i4 and i7):
//   - b17_C at T=8 and 16, i2 at T=4 and i4 at T=4 and 8: with any
//     checkpoint store, saving the tff stage (core.EncodeMachine) needs
//     more than 2.5 GB, which would take the service down;
//   - toolarge 1hot at T=4 and the 64-adder at T=8: the same checkpoint
//     costs up to 670 MB and 6.5 s per fold, which would double a
//     round and not fit the run's time budget; i3 1hot at T=4 repeats
//     the i3 nat row's cost (the same 65 MB tff blob);
//   - i7 with 1hot state encoding: a 2-2.5 s fold.
//
// i3 at T=4 with nat encoding stays in: it is the cheapest case of that
// checkpoint cost (a 65 MB tff blob, about 0.9 s and 350 MB peak per
// fold), so the cost shows in peak_rss_mb, cpu_ms_per_job and
// jobs_per_s, and a fix to it shows as a gain. Its folds open every
// round, right after the heap is collected: later in a round, the peak
// they cause depended on where the GC cycle stood, and peak_rss_mb
// spread 16% across seeds.
type t3Row struct {
	circuit  string
	T        int
	minimize bool
	encs     []string
}

var (
	bothEncs = []string{"nat", "1hot"}
	natOnly  = []string{"nat"}
)

var table3Rows = []t3Row{
	{"64-adder", 16, false, bothEncs},
	{"apex2", 16, false, bothEncs},
	{"apex2", 8, false, bothEncs},
	{"apex2", 4, false, bothEncs},
	{"arbiter", 16, false, bothEncs},
	{"arbiter", 16, true, bothEncs},
	{"arbiter", 8, false, bothEncs},
	{"arbiter", 4, true, bothEncs},
	{"e64", 16, true, bothEncs},
	{"e64", 8, false, bothEncs},
	{"e64", 4, true, bothEncs},
	{"i2", 16, true, bothEncs},
	{"i2", 8, false, bothEncs},
	{"i3", 16, false, bothEncs},
	{"i3", 8, true, bothEncs},
	{"i3", 4, false, natOnly},
	{"i4", 16, false, bothEncs},
	{"i6", 16, true, bothEncs},
	{"i7", 16, false, natOnly},
	{"toolarge", 16, false, bothEncs},
	{"toolarge", 8, false, bothEncs},
	{"toolarge", 4, false, natOnly},
}

// table3Warmup folds before timing starts: configurations that share
// no fold key with table3Rows.
var table3Warmup = []job.Spec{
	{Generator: "e64", T: 4},
	{Generator: "i2", T: 16},
	{Generator: "i3", T: 8},
	{Generator: "arbiter", T: 8, Minimize: true},
	{Generator: "i6", T: 16},
	{Generator: "i6", T: 16, StateEnc: "1hot"},
}

func table3Functional(rng *rand.Rand, small bool, foldWorkers int) (*workload, error) {
	var specs []job.Spec
	for _, row := range table3Rows {
		for _, enc := range row.encs {
			for _, reorder := range []bool{false, true} {
				specs = append(specs, job.Spec{Generator: row.circuit, T: row.T,
					StateEnc: enc, Reorder: reorder, Minimize: row.minimize})
			}
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	heavy := func(s job.Spec) bool { return s.Generator == "i3" && s.T == 4 }
	sort.SliceStable(specs, func(i, j int) bool { return heavy(specs[i]) && !heavy(specs[j]) })
	warm := table3Warmup
	if small {
		specs, warm = lightest(specs, 4), warm[:2]
	}
	w := &workload{Clients: 1}
	var err error
	if w.Jobs, err = generatorInputs(specs, foldWorkers); err != nil {
		return nil, err
	}
	if w.Prepare, err = generatorInputs(warm, foldWorkers); err != nil {
		return nil, err
	}
	return w, nil
}

// lightest keeps the first n specs on circuits that fold in a few
// milliseconds, preserving the seeded order.
func lightest(specs []job.Spec, n int) []job.Spec {
	var out []job.Spec
	for _, s := range specs {
		if len(out) < n && (s.Generator == "e64" || s.Generator == "i2" || s.Generator == "i4") {
			out = append(out, s)
		}
	}
	return out
}

func generatorInputs(specs []job.Spec, foldWorkers int) ([]input, error) {
	out := make([]input, 0, len(specs))
	for _, s := range specs {
		s.Workers = foldWorkers
		in, err := newInput(s)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// newInput marshals the spec and derives its circuit and fold key the
// way the runner does.
func newInput(s job.Spec) (input, error) {
	if err := s.Validate(); err != nil {
		return input{}, err
	}
	g, err := s.Circuit()
	if err != nil {
		return input{}, err
	}
	body, err := json.Marshal(&s)
	if err != nil {
		return input{}, err
	}
	return input{Spec: s, Body: body, FoldKey: s.FoldKey(g), circuit: g}, nil
}

// netlistText writes a combinational circuit in an uploadable format.
func netlistText(g *circuitfold.Circuit, format string) (string, error) {
	var buf bytes.Buffer
	c := &seq.Circuit{G: g, NumInputs: g.NumPIs()}
	var err error
	switch format {
	case cio.FormatAAG:
		err = cio.WriteAAG(&buf, c)
	case cio.FormatBLIF:
		err = cio.WriteBLIF(&buf, c, "upload")
	default:
		err = fmt.Errorf("no writer for netlist format %q", format)
	}
	return buf.String(), err
}

// hotSet is resubmit-hot's key set in Zipf rank order (rank 1 is the
// most frequent). The last entry is the large result: a ~530 KB
// snapshot whose decode runs under the runner's submit lock.
var hotSet = []job.Spec{
	{Generator: "64-adder", T: 16},
	{Generator: "apex2", T: 8},
	{Generator: "i2", T: 8},
	{Generator: "arbiter", T: 4, StateEnc: "1hot"},
	{Generator: "e64", T: 16, Minimize: true},
	{Generator: "i4", T: 16},
	{Generator: "i6", T: 16, Minimize: true},
	{Generator: "toolarge", T: 16, StateEnc: "1hot"},
}

func resubmitHot(rng *rand.Rand, small bool, foldWorkers int) (*workload, error) {
	n := 600
	if small {
		n = 40
	}
	w := &workload{Clients: 2, Hot: true}
	// Each key is submitted both as a generator spec and as the same
	// circuit uploaded as a netlist; both map to one fold key. Rank k
	// gets an exact Zipf(s=1) share of the n jobs, half in each form,
	// so every seed submits the same multiset and only the order moves.
	var harmonic float64
	for k := range hotSet {
		harmonic += 1 / float64(k+1)
	}
	for k, s := range hotSet {
		s.Workers = foldWorkers
		byGen, err := newInput(s)
		if err != nil {
			return nil, err
		}
		format := cio.FormatAAG
		if k%2 == 1 {
			format = cio.FormatBLIF
		}
		text, err := netlistText(byGen.circuit, format)
		if err != nil {
			return nil, err
		}
		ns := s
		ns.Generator, ns.Netlist = "", &job.Netlist{Format: format, Text: text}
		byNet, err := newInput(ns)
		if err != nil {
			return nil, err
		}
		if byNet.FoldKey != byGen.FoldKey {
			return nil, fmt.Errorf("hot key %s T=%d: netlist upload and generator spec have different fold keys", s.Generator, s.T)
		}
		w.Prepare = append(w.Prepare, byGen)
		count := int(float64(n)/(float64(k+1)*harmonic) + 0.5)
		if count < 2 {
			count = 2
		}
		for i := 0; i < count; i++ {
			if i%2 == 0 {
				w.Jobs = append(w.Jobs, byGen)
			} else {
				w.Jobs = append(w.Jobs, byNet)
			}
		}
	}
	rng.Shuffle(len(w.Jobs), func(i, j int) { w.Jobs[i], w.Jobs[j] = w.Jobs[j], w.Jobs[i] })
	return w, nil
}
