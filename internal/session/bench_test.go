package session

import (
	"context"
	"testing"
	"time"

	"congestmwc/internal/jobs"
)

// BenchmarkSessionHotPath measures the two paths a replayed workload leans
// on when mutations stay off the witness cycle: absorbing a PATCH without
// scheduling a recompute, and answering a query from the clean cached
// result. Both must stay simulation-free — the committed figures live in
// bench/session_hotpath.json and are gated by scripts/benchgate.go.
func BenchmarkSessionHotPath(b *testing.B) {
	svc := jobs.New(jobs.Config{Workers: 2, QueueCap: 64, DefaultTimeout: time.Minute})
	m, err := NewManager(Config{Jobs: svc})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		m.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = svc.Close(ctx)
	}()
	s, err := m.Create(testSpec())
	if err != nil {
		b.Fatal(err)
	}
	if st, _ := s.Query(context.Background(), time.Minute); st.State != StateClean {
		b.Fatalf("session never clean: %+v", st)
	}

	b.Run("patch_witness_kept", func(b *testing.B) {
		b.ReportAllocs()
		// Reweighting the off-witness (3,4) edge upward is always absorbed:
		// monotonically growing weights keep every batch on the fast path.
		w := int64(100)
		for i := 0; i < b.N; i++ {
			w++
			res, err := s.Patch([]Op{{Op: OpReweight, From: 3, To: 4, Weight: w}})
			if err != nil {
				b.Fatal(err)
			}
			if !res.WitnessKept {
				b.Fatalf("iteration %d fell off the witness-kept path: %+v", i, res)
			}
		}
	})

	b.Run("query_cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, cached := s.Query(context.Background(), 0)
			if !cached || st.Result == nil {
				b.Fatalf("iteration %d missed the cache: %+v", i, st)
			}
		}
	})
}
