package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"circuitfold/internal/job"
)

// ServeRun is one measured service configuration.
type ServeRun struct {
	Concurrency int     `json:"concurrency"`
	Jobs        int     `json:"jobs"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
}

// ServeReport is the BENCH_serve.json schema: submit-to-done latency
// of fold jobs through the full HTTP service path (POST, status
// polling, runner queue, fold engine), at client concurrency 1, 8
// and 64.
// The committed BENCH_serve.json is the p99 SLO baseline that
// cmd/benchcmp (make bench-compare) gates regressions against; keep
// the field names in sync with benchcmp's copy of this schema.
type ServeReport struct {
	Date     string         `json:"date"`
	Circuit  string         `json:"circuit"`
	Frames   int            `json:"frames"`
	Workers  int            `json:"workers"`
	Runs     []ServeRun     `json:"runs"`
	Overload *ServeOverload `json:"overload,omitempty"`
}

// ServeOverload is the admission-control lane: a flood against a
// deliberately tiny queue. The interesting numbers are the fast-fail
// split (accepted vs 429-rejected), whether every rejection carried a
// Retry-After hint, and that the latency of the *accepted* jobs stayed
// bounded — overload protection means the jobs the daemon said yes to
// are not the ones that suffer.
type ServeOverload struct {
	Workers        int     `json:"workers"`
	QueueDepth     int     `json:"queue_depth"`
	Offered        int     `json:"offered"`
	Accepted       int     `json:"accepted"`
	Rejected       int     `json:"rejected"`
	RetryAfterSeen bool    `json:"retry_after_seen"`
	AcceptedP50Ms  float64 `json:"accepted_p50_ms"`
	AcceptedP99Ms  float64 `json:"accepted_p99_ms"`
}

// benchServe measures the fold service end to end over real HTTP on a
// loopback listener. Every job gets a unique spec (a distinct wall
// budget that never triggers), so each one is a genuine fold, not a
// snapshot restore.
func benchServe(circuit string, T, workers, jobsPerRun int) (*ServeReport, error) {
	runner := job.NewRunnerWith(job.RunnerOptions{Workers: workers})
	srv := httptest.NewServer(job.Handler(runner))
	defer srv.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		runner.Shutdown(ctx)
	}()

	rep := &ServeReport{
		Date:    time.Now().UTC().Format(time.RFC3339),
		Circuit: circuit,
		Frames:  T,
		Workers: workers,
	}
	serial := 0
	for _, conc := range []int{1, 8, 64} {
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
					d, err := oneServeJob(srv.URL, circuit, T, serial+i)
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					lat[i] = d
				}
			}()
		}
		for i := 0; i < jobsPerRun; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		wall := time.Since(start)
		serial += jobsPerRun

		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		rep.Runs = append(rep.Runs, ServeRun{
			Concurrency: conc,
			Jobs:        jobsPerRun,
			JobsPerSec:  float64(jobsPerRun) / wall.Seconds(),
			P50Ms:       float64(lat[jobsPerRun/2].Microseconds()) / 1e3,
			P99Ms:       float64(lat[(jobsPerRun*99)/100].Microseconds()) / 1e3,
		})
	}
	return rep, nil
}

// benchServeOverload floods a one-worker, tiny-queue service with
// concurrent submissions and measures the admission-control split:
// how many were accepted vs fast-failed with 429, whether rejections
// carried Retry-After, and the submit-to-done latency of the accepted
// jobs only.
func benchServeOverload(circuit string, T, offered int) (*ServeOverload, error) {
	const workers, depth = 1, 8
	runner := job.NewRunnerWith(job.RunnerOptions{Workers: workers, QueueDepth: depth})
	srv := httptest.NewServer(job.Handler(runner))
	defer srv.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		runner.Shutdown(ctx)
	}()

	ov := &ServeOverload{Workers: workers, QueueDepth: depth, Offered: offered}
	var (
		mu       sync.Mutex
		accepted []time.Duration
		wg       sync.WaitGroup
		firstErr error
	)
	for i := 0; i < offered; i++ {
		wg.Add(1)
		go func(serial int) {
			defer wg.Done()
			d, retryAfter, err := oneOverloadJob(srv.URL, circuit, T, serial)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				if firstErr == nil {
					firstErr = err
				}
			case retryAfter: // 429
				ov.Rejected++
				ov.RetryAfterSeen = true
			default:
				ov.Accepted++
				accepted = append(accepted, d)
			}
		}(1 << 20 * (i + 1)) // distinct salts from the latency lanes
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if len(accepted) > 0 {
		sort.Slice(accepted, func(i, j int) bool { return accepted[i] < accepted[j] })
		ov.AcceptedP50Ms = float64(accepted[len(accepted)/2].Microseconds()) / 1e3
		ov.AcceptedP99Ms = float64(accepted[(len(accepted)*99)/100].Microseconds()) / 1e3
	}
	return ov, nil
}

// oneOverloadJob submits one fold; a 429 reports retryAfter=true (the
// header must be present), anything else polls to done like
// oneServeJob.
func oneOverloadJob(base, circuit string, T, serial int) (time.Duration, bool, error) {
	spec := map[string]any{
		"generator": circuit,
		"t":         T,
		"wall_ms":   int64(10*time.Minute/time.Millisecond) + int64(serial),
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, false, err
	}
	start := time.Now()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return 0, false, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		if resp.Header.Get("Retry-After") == "" {
			return 0, false, fmt.Errorf("429 without Retry-After")
		}
		return 0, true, nil
	}
	if resp.StatusCode != http.StatusAccepted {
		return 0, false, fmt.Errorf("submit: %d %s", resp.StatusCode, st.Error)
	}
	for st.State == "queued" || st.State == "running" {
		time.Sleep(time.Millisecond)
		resp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			return 0, false, err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return 0, false, err
		}
	}
	if st.State != "done" {
		return 0, false, fmt.Errorf("job %s: %s (%s)", st.ID, st.State, st.Error)
	}
	return time.Since(start), false, nil
}

// oneServeJob submits one fold over HTTP and polls it to completion,
// returning the submit-to-done latency.
func oneServeJob(base, circuit string, T, serial int) (time.Duration, error) {
	spec := map[string]any{
		"generator": circuit,
		"t":         T,
		// Uniqueness salt: a wall budget far above any real runtime,
		// different per job, so no two jobs share a checkpoint key.
		"wall_ms": int64(10*time.Minute/time.Millisecond) + int64(serial),
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("submit: %d %s", resp.StatusCode, st.Error)
	}
	for st.State == "queued" || st.State == "running" {
		time.Sleep(time.Millisecond)
		resp, err := http.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			return 0, err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
	}
	if st.State != "done" {
		return 0, fmt.Errorf("job %s: %s (%s)", st.ID, st.State, st.Error)
	}
	return time.Since(start), nil
}
