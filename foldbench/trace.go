package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"circuitfold"
	"circuitfold/internal/cio"
	"circuitfold/internal/core"
	"circuitfold/internal/job"
)

// span is one interval of a job's life, recorded from this side of the
// API: the client's own request timings, the server-side lifecycle read
// from the job's status, and the stages placed from its report.
type span struct {
	name       string
	trace      string // job id: one trace per job
	tid        int
	start, end time.Time
	children   []*span
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// self is the span's duration minus the part its children cover.
func (s *span) self() time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range s.children {
		a, b := c.start, c.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.dur() - covered
}

func (s *span) child(name string, start, end time.Time) *span {
	if start.IsZero() || end.IsZero() || end.Before(start) {
		return nil
	}
	c := &span{name: name, trace: s.trace, tid: s.tid, start: start, end: end}
	s.children = append(s.children, c)
	return c
}

// jobSpans builds one job's span tree: job > submit, wait, fetch; wait >
// queue, run; run > stage.<name>.
func jobSpans(s *sample) *span {
	root := &span{name: "job", trace: s.id, tid: s.client + 1, start: s.submitAt, end: s.fetchedAt}
	root.child("job.submit", s.submitAt, s.acceptAt)
	wait := root.child("job.wait", s.acceptAt, s.doneAt)
	root.child("job.fetch", s.doneAt, s.fetchedAt)
	if wait != nil && !s.started.IsZero() {
		queued := s.created
		if queued.Before(s.acceptAt) {
			queued = s.acceptAt // the queue wait that overlaps the POST belongs to submit
		}
		wait.child("job.queue", queued, s.started)
		if run := wait.child("job.run", s.started, s.finished); run != nil && s.report != nil {
			for _, st := range s.report.Stages {
				if st.Resumed {
					continue
				}
				a := s.started.Add(st.Start)
				run.child("stage."+st.Name, a, a.Add(st.Duration))
			}
		}
	}
	return root
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Span    string  `json:"span"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	// SelfShare is the span's self time over the jobs' summed latency.
	SelfShare float64 `json:"self_share"`
}

// traceArtifacts writes the traced run's Chrome trace and self-time
// table, replays the hidden layers, and returns the per-layer metrics.
func traceArtifacts(cfg config, w *workload, chk *checker, saves map[string]float64, rounds []*round, tr, untr latencies) (map[string]metric, error) {
	dir := filepath.Join(cfg.outDir, "trace", fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var events []circuitfold.TraceEvent
	rows := map[string]*layerRow{}
	var rootTotal time.Duration
	var submit, queue, runT, fetch []float64
	hits, subs := 0, 0
	stageMS := map[string]float64{}
	var bddPeak, satConf float64
	var storeKB float64
	for _, r := range rounds {
		storeKB += r.storeKB / float64(len(r.samples))
		for i := range r.samples {
			s := &r.samples[i]
			subs++
			if s.cache == "hit" {
				hits++
			}
			if s.err != nil {
				continue
			}
			submit = append(submit, ms(s.acceptAt.Sub(s.submitAt)))
			fetch = append(fetch, ms(s.fetchedAt.Sub(s.doneAt)))
			if !s.started.IsZero() {
				queue = append(queue, ms(s.started.Sub(s.created)))
				runT = append(runT, ms(s.finished.Sub(s.started)))
			}
			if s.report != nil {
				var peak int
				for _, st := range s.report.Stages {
					if st.Resumed {
						continue
					}
					stageMS[st.Name] += ms(st.Duration)
					satConf += float64(st.SATConflicts)
					if st.BDDNodes > peak {
						peak = st.BDDNodes
					}
				}
				bddPeak += float64(peak)
			}
			root := jobSpans(s)
			rootTotal += root.dur()
			var walk func(sp *span)
			walk = func(sp *span) {
				row := rows[sp.name]
				if row == nil {
					row = &layerRow{Span: sp.name}
					rows[sp.name] = row
				}
				row.Count++
				row.TotalMS += ms(sp.dur())
				row.SelfMS += ms(sp.self())
				events = append(events, circuitfold.TraceEvent{
					Name: sp.name, Cat: strings.SplitN(sp.name, ".", 2)[0], Ph: "X",
					TS:  float64(sp.start.Sub(rounds[0].start).Microseconds()),
					Dur: float64(sp.dur().Microseconds()), PID: 1, TID: sp.tid,
					Args: map[string]any{"trace_id": sp.trace},
				})
				for _, c := range sp.children {
					walk(c)
				}
			}
			walk(root)
		}
	}
	nr := float64(len(rounds))
	table := make([]*layerRow, 0, len(rows))
	for _, row := range rows {
		row.SelfShare = row.SelfMS / ms(rootTotal)
		table = append(table, row)
	}
	sort.Slice(table, func(i, j int) bool { return table[i].SelfMS > table[j].SelfMS })

	rp, err := replay(w, chk, saves, rounds, filepath.Join(cfg.outDir, "state"))
	if err != nil {
		return nil, err
	}
	overhead := map[string]float64{
		"jobs_per_s_pct":         pct(tr.jobsPerS, untr.jobsPerS),
		"latency_p50_ms_pct":     pct(tr.p50, untr.p50),
		"latency_tail_ms_pct":    pct(tr.tail, untr.tail),
		"latency_geomean_ms_pct": pct(tr.geomean, untr.geomean),
		"cpu_ms_per_job_pct":     pct(tr.cpuPerJob, untr.cpuPerJob),
	}

	var tb bytes.Buffer
	if err := circuitfold.WriteChromeTrace(&tb, events); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.json"), tb.Bytes(), 0o644); err != nil {
		return nil, err
	}
	art, err := json.MarshalIndent(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed,
		"self_time":        table,
		"tracing_overhead": overhead,
		"tracing_overhead_note": "Zero inside the timed window by construction: traced and untraced rounds " +
			"do the same work there, since spans are rebuilt from timestamps and reports are fetched after " +
			"the window. The figures compare the untraced rounds with the traced rounds, alternated and " +
			"each summarized as the end-to-end metrics are, so they show round-to-round noise only.",
		"traced": tr.summary(), "untraced": untr.summary(),
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.json"), append(art, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "trace: %s\n", dir)
	for _, row := range table {
		fmt.Fprintf(os.Stderr, "  %-16s n=%-6d total=%10.1fms self=%10.1fms (%4.1f%%)\n",
			row.Span, row.Count, row.TotalMS, row.SelfMS, 100*row.SelfShare)
	}

	hitRatio := 0.0
	if subs > 0 {
		hitRatio = float64(hits) / float64(subs)
	}
	return map[string]metric{
		"job.submit_ms":       {median(submit), "ms"},
		"job.queue_wait_ms":   {median(queue), "ms"},
		"job.run_ms":          {median(runT), "ms"},
		"job.result_fetch_ms": {median(fetch), "ms"},
		"cache.hit_ratio":     {hitRatio, "ratio"},
		"journal.append_ms":   {rp.journalAppend, "ms"},
		"store.save_ms":       {rp.storeSave, "ms"},
		"store.kb_per_job":    {storeKB / nr, "KB"},
		"cio.parse_ms":        {rp.parse, "ms"},
		"gen.build_ms":        {rp.build, "ms"},
		"aig.structhash_ms":   {rp.structHash, "ms"},
		"core.encode_ms":      {rp.encode, "ms"},
		"core.decode_ms":      {rp.decode, "ms"},
		"core.result_kb":      {rp.resultKB, "KB"},
		"stage.schedule_ms":   {stageMS["schedule"] / nr, "ms"},
		"stage.tff_ms":        {stageMS["tff"] / nr, "ms"},
		"stage.minimize_ms":   {stageMS["minimize"] / nr, "ms"},
		"stage.encode_ms":     {stageMS["encode"] / nr, "ms"},
		"bdd.peak_nodes_sum":  {bddPeak / nr, "count"},
		"sat.conflicts_sum":   {satConf / nr, "count"},
	}, nil
}

func pct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}

func (l latencies) summary() map[string]float64 {
	return map[string]float64{"jobs": float64(l.n), "jobs_per_s": l.jobsPerS, "latency_p50_ms": l.p50,
		"latency_tail_ms": l.tail, "latency_geomean_ms": l.geomean, "cpu_ms_per_job": l.cpuPerJob}
}

// replayed holds the serial layer replay's times. Each is the layer's
// busy time per timed job: the replayed cost of the calls that job's
// path makes, summed over the traced rounds' jobs and divided by their
// number. Every job builds or parses its circuit, hashes it, journals
// its submit and done records and has its result encoded for the GET;
// a cache hit also decodes the cached result; a cold fold also journals
// a started record, encodes its final result once more and saves every
// stage checkpoint.
type replayed struct {
	journalAppend, storeSave, parse, build, structHash float64
	encode, decode, resultKB                           float64
}

// replay runs each distinct job input and result once more, serially
// and on scratch state, through the layer functions the HTTP boundary
// hides, and weights them by the traced rounds' jobs. saves holds each
// folded key's replayed checkpoint save time.
func replay(w *workload, chk *checker, saves map[string]float64, rounds []*round, scratchRoot string) (*replayed, error) {
	scratch, err := os.MkdirTemp(scratchRoot, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	timeIt := func(f func() error) (float64, error) {
		t0 := time.Now()
		err := f()
		return ms(time.Since(t0)), err
	}

	// Per distinct input (keyed by its POST body).
	type inTimes struct{ submit, started, done, parse, build, hash float64 }
	byBody := map[string]*inTimes{}
	jr, _, err := job.OpenJournal(filepath.Join(scratch, "journal.wal"))
	if err != nil {
		return nil, err
	}
	for i := range w.Jobs {
		body := string(w.Jobs[i].Body)
		if byBody[body] != nil {
			continue
		}
		t := &inTimes{}
		byBody[body] = t
		spec := w.Jobs[i].Spec
		id := fmt.Sprintf("r%04d", i)
		for _, a := range []struct {
			d    *float64
			op   job.JournalOp
			spec *job.Spec
		}{{&t.submit, job.OpSubmitted, &spec}, {&t.started, job.OpStarted, nil}, {&t.done, job.OpDone, nil}} {
			if *a.d, err = timeIt(func() error { return jr.Append(a.op, id, a.spec, "") }); err != nil {
				jr.Close()
				return nil, err
			}
		}
		var g *circuitfold.Circuit
		if spec.Netlist != nil {
			t.parse, err = timeIt(func() error {
				c, err := cio.ReadNetlist(spec.Netlist.Format, strings.NewReader(spec.Netlist.Text))
				if err == nil {
					g = c.G
				}
				return err
			})
		} else {
			t.build, err = timeIt(func() (err error) { g, err = circuitfold.Benchmark(spec.Generator); return err })
		}
		if err != nil {
			jr.Close()
			return nil, err
		}
		t.hash, _ = timeIt(func() error { spec.FoldKey(g); return nil })
	}
	if err := jr.Close(); err != nil {
		return nil, err
	}

	// Per distinct result (keyed by fold key).
	type resTimes struct{ decode, encode, kb float64 }
	byKey := map[string]*resTimes{}
	for i := range w.Jobs {
		key := w.Jobs[i].FoldKey
		kr, ok := chk.keys[key]
		if byKey[key] != nil || !ok {
			continue
		}
		t := &resTimes{kb: float64(len(kr.data)) / 1024}
		byKey[key] = t
		var res *circuitfold.Result
		if t.decode, err = timeIt(func() (err error) { res, err = core.DecodeResult(kr.data); return err }); err != nil {
			return nil, err
		}
		if t.encode, err = timeIt(func() error { _, err := core.EncodeResult(res); return err }); err != nil {
			return nil, err
		}
	}

	rp := &replayed{}
	n := 0
	for _, r := range rounds {
		for i := range r.samples {
			s := &r.samples[i]
			n++
			folded := s.cache == "miss"
			if t := byBody[string(s.in.Body)]; t != nil {
				rp.journalAppend += t.submit + t.done
				if folded {
					rp.journalAppend += t.started
				}
				rp.parse += t.parse
				rp.build += t.build
				rp.structHash += t.hash
			}
			if t := byKey[s.in.FoldKey]; t != nil {
				rp.encode += t.encode
				rp.resultKB += t.kb
				if folded {
					rp.encode += t.encode
					rp.storeSave += saves[s.in.FoldKey]
				} else {
					rp.decode += t.decode
				}
			}
		}
	}
	if n > 0 {
		for _, x := range []*float64{&rp.journalAppend, &rp.storeSave, &rp.parse, &rp.build,
			&rp.structHash, &rp.encode, &rp.decode, &rp.resultKB} {
			*x /= float64(n)
		}
	}
	return rp, nil
}
