package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"bftree/index"
)

// stubMaintainer is an index whose published drift the test dials; its
// reads find nothing and its writes are no-ops.
type stubMaintainer struct {
	drift, threshold float64
}

func (s *stubMaintainer) Search(uint64) (*index.Result, error)         { return &index.Result{}, nil }
func (s *stubMaintainer) SearchFirst(uint64) (*index.Result, error)    { return &index.Result{}, nil }
func (s *stubMaintainer) RangeScan(_, _ uint64) (*index.Result, error) { return &index.Result{}, nil }
func (s *stubMaintainer) Stats() index.Stats {
	return index.Stats{Backend: "stub", EffectiveFPP: s.drift}
}
func (s *stubMaintainer) Scan(_, _ uint64) (index.Iterator, error) {
	return nil, index.ErrUnsupported
}
func (s *stubMaintainer) MultiSearch([]uint64) (*index.Result, error) { return &index.Result{}, nil }
func (s *stubMaintainer) Close() error                                { return nil }
func (s *stubMaintainer) Insert(uint64, index.Ref) error              { return nil }
func (s *stubMaintainer) Maintain() error                             { return nil }
func (s *stubMaintainer) MaintenanceStats() index.MaintenanceStats {
	return index.MaintenanceStats{EffectiveFPP: s.drift, FPPThreshold: s.threshold}
}

// TestWriteAcceptedAtAnyDrift pins that drift never refuses a write: a
// BF-tree answers every probe correctly at any drift, and its
// maintainer, not the server, bounds the false-read rate. Through the
// whole range of published drift, up to far past the compaction
// threshold, an insert answers 204.
func TestWriteAcceptedAtAnyDrift(t *testing.T) {
	ix := &stubMaintainer{threshold: 0.10}
	s := New(ix, Options{})
	body, _ := json.Marshal(WriteRequest{Key: 1, Page: 1})
	for _, drift := range []float64{0, 0.09, 0.10, 0.5, 0.99} {
		ix.drift = drift
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/insert", bytes.NewReader(body)))
		if rec.Code != http.StatusNoContent {
			t.Errorf("insert at drift %g (threshold %g): status %d, want 204", drift, ix.threshold, rec.Code)
		}
	}
	if got := s.Served().Errors; got != 0 {
		t.Errorf("served errors = %d, want 0", got)
	}
}
