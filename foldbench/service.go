package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"circuitfold/internal/job"
	"circuitfold/internal/pipeline"
)

// service is foldd as production runs it, inside this process: a
// FileStore and an fsynced journal in a fresh directory, Recover called
// before any traffic, and job.Handler on a loopback listener.
type service struct {
	dir     string
	store   *job.FileStore
	journal *job.Journal
	runner  *job.Runner
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
}

func startService(root string, workers, clients int) (*service, error) {
	dir, err := os.MkdirTemp(root, "svc-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir}
	fail := func(err error) (*service, error) {
		s.close()
		return nil, err
	}
	s.store, err = job.NewFileStore(filepath.Join(dir, "store"))
	if err != nil {
		return fail(err)
	}
	var recs []job.JournalRecord
	s.journal, recs, err = job.OpenJournal(filepath.Join(s.store.Dir(), "journal.wal"))
	if err != nil {
		return fail(err)
	}
	s.runner = job.NewRunnerWith(job.RunnerOptions{Workers: workers, Store: s.store, Journal: s.journal})
	if _, err := s.runner.Recover(recs); err != nil {
		return fail(fmt.Errorf("recover: %w", err))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	s.srv = &http.Server{Handler: job.Handler(s.runner)}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * clients,
		DisableCompression:  true,
	}}
	return s, nil
}

// close stops the server and the runner, closes the journal and removes
// the service directory. It returns once every goroutine it owns ended.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown(ctx))
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		s.client.CloseIdleConnections()
	}
	if s.runner != nil {
		errs = append(errs, s.runner.Shutdown(ctx))
	}
	if s.journal != nil {
		errs = append(errs, s.journal.Close())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// storeBytes is the size of everything under the store directory.
func (s *service) storeBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(s.dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// replaySaves times the checkpoint saves that in's fold made: every
// stage blob the runner left under the job's checkpoint directory is
// saved again, in turn, to a scratch FileStore. It returns their total
// in milliseconds.
func (s *service) replaySaves(in *input) (float64, error) {
	key := in.Spec.Hash() // the runner checkpoints a job under its spec hash
	ents, err := os.ReadDir(filepath.Join(s.store.Dir(), url.PathEscape(key)))
	if err != nil {
		return 0, fmt.Errorf("checkpoints of %s T=%d: %w", in.source(), in.Spec.T, err)
	}
	scratch, err := job.NewFileStore(filepath.Join(s.dir, "replay"))
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(scratch.Dir())
	src, dst := s.store.Checkpoint(key), scratch.Checkpoint(key)
	var total time.Duration
	for _, e := range ents {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") { // temp files
			continue
		}
		stage, err := url.PathUnescape(e.Name())
		if err != nil {
			return 0, err
		}
		data, ok := src.Load(stage)
		if !ok {
			return 0, fmt.Errorf("checkpoint %s of %s T=%d does not load", stage, in.source(), in.Spec.T)
		}
		t0 := time.Now()
		if err := dst.Save(stage, data); err != nil {
			return 0, err
		}
		total += time.Since(t0)
	}
	return ms(total), nil
}

// sample is one job as a client saw it. Times are wall-clock instants.
type sample struct {
	in        *input
	id        string
	cache     string
	submitAt  time.Time // POST sent
	acceptAt  time.Time // POST answered
	doneAt    time.Time // events stream ended
	fetchedAt time.Time // result body read
	result    []byte
	err       error
	bad       bool // failed the output check
	client    int
	// From the job's status after the round: server-side lifecycle.
	created, started, finished time.Time
	report                     *pipeline.Report // traced runs, folded jobs only
}

func (s *sample) latency() time.Duration { return s.fetchedAt.Sub(s.submitAt) }

// runJob drives one job through the API the way a blocking client
// does: submit, follow the event stream until it ends, fetch the result.
func (s *service) runJob(in *input) sample {
	sm := sample{in: in, submitAt: time.Now()}
	var st job.Status
	code, body, err := s.do(http.MethodPost, "/v1/jobs", in.Body)
	sm.acceptAt = time.Now()
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	if err != nil {
		sm.err = err
		return sm
	}
	sm.id, sm.cache = st.ID, st.Cache
	if code, body, err = s.do(http.MethodGet, "/v1/jobs/"+st.ID+"/events?format=jsonl", nil); err == nil && code != http.StatusOK {
		err = fmt.Errorf("events: HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	sm.doneAt = time.Now()
	if err != nil {
		sm.err = err
		return sm
	}
	code, body, err = s.do(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil)
	sm.fetchedAt = time.Now()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d: %s", code, bytes.TrimSpace(body))
	}
	sm.result, sm.err = body, err
	return sm
}

// do sends one request and reads the whole response body.
func (s *service) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getJSON fetches path into v, requiring 200.
func (s *service) getJSON(path string, v any) error {
	code, body, err := s.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", path, code, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}
