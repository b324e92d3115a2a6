package reportserver

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

// hitHandler builds a server whose compute step returns the golden
// QuickConfig report for a workload, primes its memory tier with one
// request for name, and returns the handler with the golden bytes a
// hit must serve. No simulation runs.
func hitHandler(tb testing.TB, name string) (http.Handler, []byte) {
	tb.Helper()
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".json"))
	if err != nil {
		tb.Fatal(err)
	}
	var rep repro.Report
	if err := json.Unmarshal(golden, &rep); err != nil {
		tb.Fatal(err)
	}
	s := New(Config{
		RunConfig: repro.QuickConfig(),
		Run: func(context.Context, string, repro.Config) (*repro.Report, error) {
			cp := rep
			return &cp, nil
		},
	})
	s.MarkReady()
	h := s.Handler()
	if w := serveHit(h, name); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), golden) {
		tb.Fatalf("priming request: status %d, golden bytes %v", w.Code, bytes.Equal(w.Body.Bytes(), golden))
	}
	return h, golden
}

// serveHit sends one in-process GET /v1/report/{name} through h.
func serveHit(h http.Handler, name string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/report/"+name, nil))
	return w
}

// TestReportHitAllocs bounds the allocations of a memory-tier hit
// through Handler(), recorder and request included. A hit writes the
// cache's stored bytes. Decoding them into a Report and encoding it
// twice (response and stale store) cost 121 allocations per hit in
// this harness; serving the stored bytes with a memoized source
// digest costs 59–60 (Go 1.24, linux/amd64).
func TestReportHitAllocs(t *testing.T) {
	h, golden := hitHandler(t, "odb")
	allocs := testing.AllocsPerRun(200, func() {
		if w := serveHit(h, "odb"); w.Body.Len() != len(golden) {
			t.Fatalf("hit served %d bytes, want %d", w.Body.Len(), len(golden))
		}
	})
	const bound = 80
	if allocs > bound {
		t.Fatalf("memory-tier hit: %.0f allocations, want at most %d", allocs, bound)
	}
}

// BenchmarkReportHit times an in-process memory-tier hit through
// Handler(): trace, instrumentation, cache lookup and the write of the
// stored bytes.
func BenchmarkReportHit(b *testing.B) {
	h, golden := hitHandler(b, "odb")
	b.ReportAllocs()
	b.SetBytes(int64(len(golden)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serveHit(h, "odb"); w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}
