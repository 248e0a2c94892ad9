package job

import (
	"context"
	"path/filepath"
	"testing"
)

// BenchmarkSubmitHit times a submit-time cache hit in process, as foldd
// serves one: a primed 64-adder T=16 fold over a FileStore and a
// journal. It is the in-process number behind foldbench's resubmit-hot
// workload, where every timed job is such a hit.
func BenchmarkSubmitHit(b *testing.B) {
	dir := b.TempDir()
	jr, _, err := OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		b.Fatal(err)
	}
	fs, err := NewFileStore(filepath.Join(dir, "ck"))
	if err != nil {
		b.Fatal(err)
	}
	r := NewRunnerWith(RunnerOptions{Workers: 1, Store: fs, Journal: jr})
	defer r.Shutdown(context.Background())
	if _, err := r.Recover(nil); err != nil {
		b.Fatal(err)
	}
	j, err := r.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	<-j.Done()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := r.Submit(smokeSpec(), SubmitOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if j.CacheStatus() != "hit" {
			b.Fatalf("submit %d: cache %q, want hit", i, j.CacheStatus())
		}
	}
}

// BenchmarkFoldTwin times the 1hot twin of a primed i6 T=16 minimize
// fold over a FileStore and a journal: schedule, tff and minimize
// restore from the nat fold's stage blobs, so the job runs only the
// encode stage. Each iteration submits the twin to a fresh runner
// (cold result cache) after deleting its final snapshot, so the job
// folds rather than hits.
func BenchmarkFoldTwin(b *testing.B) {
	dir := b.TempDir()
	jr, _, err := OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer jr.Close()
	fs, err := NewFileStore(filepath.Join(dir, "ck"))
	if err != nil {
		b.Fatal(err)
	}
	nat := Spec{Generator: "i6", T: 16, Minimize: true}
	hot := nat
	hot.StateEnc = "1hot"
	newRunner := func() *Runner {
		r := NewRunnerWith(RunnerOptions{Workers: 1, Store: fs, Journal: jr})
		if _, err := r.Recover(nil); err != nil {
			b.Fatal(err)
		}
		return r
	}
	r := newRunner()
	if j, err := r.Submit(nat, SubmitOptions{}); err != nil {
		b.Fatal(err)
	} else {
		<-j.Done()
	}
	r.Shutdown(context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := fs.Delete(hot.Hash()); err != nil {
			b.Fatal(err)
		}
		r := newRunner()
		b.StartTimer()
		j, err := r.Submit(hot, SubmitOptions{})
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
		b.StopTimer()
		if st := j.Status(); st.State != StateDone || len(st.Resumed) != 3 {
			b.Fatalf("twin = %+v (%s), want done with 3 resumed stages", st, st.Error)
		}
		r.Shutdown(context.Background())
		b.StartTimer()
	}
}
