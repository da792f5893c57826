package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"bftree/index"
)

// White-box tests of the admission gate: the pure ramp function, and
// the 429 mechanics through a stub Maintainer whose published drift the
// test controls exactly.

func TestAdmitWriteRamp(t *testing.T) {
	const T, frac = 0.10, 0.9 // ramp spans [0.09, 0.10)
	cases := []struct {
		name                string
		drift, thresh, draw float64
		want                bool
	}{
		{"zero drift", 0, T, 0.0, true},
		{"below ramp", 0.089, T, 0.0, true},
		// At exactly the ramp start the rejection probability is 0:
		// draw >= 0 always holds, so every write is admitted.
		{"ramp start still admits", 0.09, T, 0.0, true},
		{"mid ramp low draw rejects", 0.095, T, 0.3, false},
		{"mid ramp high draw admits", 0.095, T, 0.7, true},
		{"at threshold", 0.10, T, 0.999, false},
		{"above threshold", 0.5, T, 0.999, false},
		{"compaction disabled (T=0)", 0.5, 0, 0.0, true},
		{"compaction disabled (T=1)", 0.5, 1, 0.0, true},
	}
	for _, c := range cases {
		if got := admitWrite(c.drift, c.thresh, frac, c.draw); got != c.want {
			t.Errorf("%s: admitWrite(%g, %g, %g, draw %g) = %v, want %v",
				c.name, c.drift, c.thresh, frac, c.draw, got, c.want)
		}
	}

	// Fraction >= 1 disables the gate even past the threshold.
	if !admitWrite(0.5, T, 1.0, 0.0) {
		t.Error("fraction 1 must disable backpressure")
	}
}

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

func postInsert(t *testing.T, s *Server) *httptest.ResponseRecorder {
	t.Helper()
	body, _ := json.Marshal(WriteRequest{Key: 1, Page: 1})
	req := httptest.NewRequest(http.MethodPost, "/insert", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestBackpressure429(t *testing.T) {
	ix := &stubMaintainer{drift: 0.05, threshold: 0.10}
	s := New(ix, Options{BackpressureFraction: 0.9})
	s.admitRand = func() float64 { return 0.5 } // pin the coin

	// Below the ramp: every write lands.
	if rec := postInsert(t, s); rec.Code != http.StatusNoContent {
		t.Fatalf("below-ramp insert: status %d, want 204", rec.Code)
	}

	// Past the threshold: 429 with both retry headers and the wire
	// body, and the rejection is counted.
	ix.drift = 0.10
	rec := postInsert(t, s)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("at-threshold insert: status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q (50ms rounds up to a whole second)", got, "1")
	}
	if got := rec.Header().Get("X-Retry-After-Ms"); got != "50" {
		t.Errorf("X-Retry-After-Ms = %q, want %q", got, "50")
	}
	var resp ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.RetryAfterMs != 50 {
		t.Errorf("body retry_after_ms = %d, want 50", resp.RetryAfterMs)
	}
	if got := s.Served().Rejected; got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}

	// Mid-ramp with the pinned coin: drift 0.095 is halfway up the
	// [0.09, 0.10) ramp → rejection probability 0.5; a draw of exactly
	// 0.5 admits (draw >= ramp), a draw just under rejects.
	ix.drift = 0.095
	if rec := postInsert(t, s); rec.Code != http.StatusNoContent {
		t.Errorf("mid-ramp draw=ramp: status %d, want 204", rec.Code)
	}
	s.admitRand = func() float64 { return 0.49 }
	if rec := postInsert(t, s); rec.Code != http.StatusTooManyRequests {
		t.Errorf("mid-ramp draw<ramp: status %d, want 429", rec.Code)
	}

	// Reads never feel backpressure, whatever the drift.
	ix.drift = 0.5
	body, _ := json.Marshal(PointRequest{Key: 1})
	req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("read under max drift: status %d, want 200", rec.Code)
	}
}

// TestBackpressureDisabled pins the two off switches: a non-Maintainer
// backend has no gate at all, and fraction >= 1 turns it off for
// Maintainer backends.
func TestBackpressureDisabled(t *testing.T) {
	ix := &stubMaintainer{drift: 0.99, threshold: 0.10}
	s := New(ix, Options{BackpressureFraction: 1})
	s.admitRand = func() float64 { return 0 }
	if rec := postInsert(t, s); rec.Code != http.StatusNoContent {
		t.Errorf("fraction 1: status %d, want 204", rec.Code)
	}
}
