package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"circuitfold/internal/job"
)

// ThroughputRun is one measured runner configuration.
type ThroughputRun struct {
	// Mode is "cold" (every job a distinct spec, every fold computed)
	// or "warm" (identical resubmissions served by the result cache).
	Mode        string  `json:"mode"`
	Concurrency int     `json:"concurrency"`
	Jobs        int     `json:"jobs"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
}

// ThroughputReport is the BENCH_throughput.json schema: the shared-work
// engine's jobs/sec through the in-process runner (submit to done, no
// HTTP), cold and warm, at client concurrency 1, 8 and 64. The
// committed BENCH_throughput.json is the jobs/sec baseline that
// cmd/benchcmp (make bench-compare) gates regressions against; keep the
// field names in sync with benchcmp's copy of this schema.
type ThroughputReport struct {
	Date    string          `json:"date"`
	Circuit string          `json:"circuit"`
	Frames  int             `json:"frames"`
	Workers int             `json:"workers"`
	Runs    []ThroughputRun `json:"runs"`
	// WarmSpeedup is warm jobs/sec over cold jobs/sec at concurrency 1:
	// what the result cache buys a resubmitted workload.
	WarmSpeedup float64 `json:"warm_speedup"`
}

// benchThroughput measures the runner's job throughput directly (no
// HTTP — the serve lane covers that path). Cold rows give every job a
// unique spec, so each one is a genuine fold; the folds pin Workers=1
// so measured scaling comes from the runner's worker goroutines, not
// from intra-fold parallelism. Warm rows resubmit one
// identical spec, so after the priming fold every job is a result-cache
// hit at submit.
func benchThroughput(circuit string, T, workers, jobsPerRun int) (*ThroughputReport, error) {
	runner := job.NewRunnerWith(job.RunnerOptions{Workers: workers})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		runner.Shutdown(ctx)
	}()

	rep := &ThroughputReport{
		Date:    time.Now().UTC().Format(time.RFC3339),
		Circuit: circuit,
		Frames:  T,
		Workers: workers,
	}

	// Salted spec for cold mode: a wall budget far above any real
	// runtime, different per job, so no two cold jobs share a fold key.
	coldSpec := func(serial int) job.Spec {
		return job.Spec{
			Generator: circuit,
			T:         T,
			Workers:   1,
			WallMS:    int64(10*time.Minute/time.Millisecond) + int64(serial),
		}
	}
	warmSpec := job.Spec{Generator: circuit, T: T, Workers: 1}

	// Prime the warm spec once so its timed rows are pure cache hits.
	j, err := runner.Submit(warmSpec, job.SubmitOptions{})
	if err != nil {
		return nil, err
	}
	<-j.Done()
	if _, err := j.Result(); err != nil {
		return nil, fmt.Errorf("prime: %w", err)
	}

	serial := 0
	for _, mode := range []string{"cold", "warm"} {
		for _, conc := range []int{1, 8, 64} {
			run, err := throughputRow(runner, mode, conc, jobsPerRun, serial, coldSpec, warmSpec)
			if err != nil {
				return nil, err
			}
			rep.Runs = append(rep.Runs, *run)
			serial += jobsPerRun
		}
	}
	var cold1, warm1 float64
	for _, r := range rep.Runs {
		if r.Concurrency == 1 {
			if r.Mode == "cold" {
				cold1 = r.JobsPerSec
			} else {
				warm1 = r.JobsPerSec
			}
		}
	}
	if cold1 > 0 {
		rep.WarmSpeedup = warm1 / cold1
	}
	return rep, nil
}

// throughputRow measures one (mode, concurrency) cell: jobsPerRun jobs
// submitted by conc client goroutines, each waiting its job to done.
func throughputRow(runner *job.Runner, mode string, conc, jobsPerRun, serial int,
	coldSpec func(int) job.Spec, warmSpec job.Spec) (*ThroughputRun, error) {
	lat := make([]time.Duration, jobsPerRun)
	jobs := make(chan int)
	var wg sync.WaitGroup
	var firstErr error
	var mu sync.Mutex
	start := time.Now()
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				spec := warmSpec
				if mode == "cold" {
					spec = coldSpec(serial + i)
				}
				jStart := time.Now()
				j, err := runner.Submit(spec, job.SubmitOptions{})
				if err == nil {
					<-j.Done()
					_, err = j.Result()
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				lat[i] = time.Since(jStart)
			}
		}()
	}
	for i := 0; i < jobsPerRun; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("%s c=%d: %w", mode, conc, firstErr)
	}
	wall := time.Since(start)

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return &ThroughputRun{
		Mode:        mode,
		Concurrency: conc,
		Jobs:        jobsPerRun,
		JobsPerSec:  float64(jobsPerRun) / wall.Seconds(),
		P50Ms:       float64(lat[jobsPerRun/2].Microseconds()) / 1e3,
		P99Ms:       float64(lat[(jobsPerRun*99)/100].Microseconds()) / 1e3,
	}, nil
}
