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
