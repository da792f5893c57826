package device

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentReadsExactTotals hammers ReadPage from many goroutines
// and checks that the lock-free accounting loses nothing: total reads
// and bytes must equal the exact number of operations issued, even
// though the random/sequential split depends on interleaving.
func TestConcurrentReadsExactTotals(t *testing.T) {
	const (
		pages   = 128
		workers = 8
		perW    = 500
	)
	d := New(Memory, 512)
	d.Allocate(pages)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				id := PageID((w*perW + i) % pages)
				if _, _, err := d.ReadPage(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := d.Stats()
	if got, want := s.Reads(), uint64(workers*perW); got != want {
		t.Errorf("total reads = %d, want %d", got, want)
	}
	if got, want := s.BytesRead, uint64(workers*perW*512); got != want {
		t.Errorf("bytes read = %d, want %d", got, want)
	}
	if s.RandomReads+s.SeqReads != s.Reads() {
		t.Error("read classification does not sum to the total")
	}
}

// TestConcurrentReadWriteDistinctPages runs writers and readers over
// disjoint page sets concurrently with ongoing allocation; the race
// detector verifies the lock-free directory, and the totals must be
// exact.
func TestConcurrentReadWriteDistinctPages(t *testing.T) {
	const (
		readPages  = 64
		writePages = 64
		workers    = 4
		perW       = 300
	)
	d := New(SSD, 256)
	d.Allocate(readPages + writePages)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if _, _, err := d.ReadPage(PageID(i % readPages)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := make([]byte, 256)
			for i := 0; i < perW; i++ {
				payload[0] = byte(w)
				id := PageID(readPages + (w*perW+i)%writePages)
				if _, err := d.WritePage(id, payload); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				d.Allocate(1)
				d.Stats() // snapshot while I/O is in flight
			}
		}()
	}
	wg.Wait()
	s := d.Stats()
	if got, want := s.Reads(), uint64(workers*perW); got != want {
		t.Errorf("total reads = %d, want %d", got, want)
	}
	if got, want := s.Writes(), uint64(workers*perW); got != want {
		t.Errorf("total writes = %d, want %d", got, want)
	}
	if got, want := d.NumPages(), uint64(readPages+writePages+workers*20); got != want {
		t.Errorf("pages = %d, want %d", got, want)
	}
}

// TestConcurrentSamePageReadWrite verifies a page read racing a write to
// the same page always observes a whole image (never a torn mix),
// because a write installs a fresh image instead of overwriting one.
func TestConcurrentSamePageReadWrite(t *testing.T) {
	d := New(Memory, 128)
	d.Allocate(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		payload := make([]byte, 128)
		for v := byte(0); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := range payload {
				payload[i] = v
			}
			if _, err := d.WritePage(0, payload); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		buf, _, err := d.ReadPage(0)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(buf); j++ {
			if buf[j] != buf[0] {
				close(stop)
				wg.Wait()
				t.Fatalf("torn read: byte 0 = %d, byte %d = %d", buf[0], j, buf[j])
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestSetRealLatencyDefaultOff ensures the default device never sleeps
// (latency 0) and that setting and clearing the latency round-trips.
func TestSetRealLatencyDefaultOff(t *testing.T) {
	d := New(Memory, 64)
	d.Allocate(1)
	if got := d.realLatency.Load(); got != 0 {
		t.Fatalf("default real latency = %d, want 0", got)
	}
	d.SetRealLatency(1)
	d.SetRealLatency(0)
	for i := 0; i < 3; i++ {
		if _, _, err := d.ReadPage(0); err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(d.Stats().Reads()) != "3" {
		t.Error("reads not accounted with latency disabled")
	}
}
