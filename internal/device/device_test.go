package device

import (
	"testing"
	"testing/quick"
	"time"
)

func TestAllocateAndRoundTrip(t *testing.T) {
	d := New(Memory, 4096)
	first := d.Allocate(3)
	if first != 0 {
		t.Fatalf("first allocation should start at page 0, got %d", first)
	}
	if d.NumPages() != 3 {
		t.Fatalf("NumPages = %d, want 3", d.NumPages())
	}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	if _, err := d.WritePage(1, payload); err != nil {
		t.Fatal(err)
	}
	buf, _, err := d.ReadPage(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if buf[i] != payload[i] {
			t.Fatalf("byte %d: got %d want %d", i, buf[i], payload[i])
		}
	}
}

func TestOutOfRange(t *testing.T) {
	d := New(Memory, 512)
	d.Allocate(1)
	if _, _, err := d.ReadPage(5); err == nil {
		t.Error("reading unallocated page should fail")
	}
	if _, err := d.WritePage(5, make([]byte, 512)); err == nil {
		t.Error("writing unallocated page should fail")
	}
	if _, err := d.WritePage(0, make([]byte, 1024)); err == nil {
		t.Error("oversized payload should fail")
	}
}

func TestShortWriteZeroFills(t *testing.T) {
	d := New(Memory, 128)
	d.Allocate(1)
	full := make([]byte, 128)
	for i := range full {
		full[i] = 0xff
	}
	if _, err := d.WritePage(0, full); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePage(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	buf, _, err := d.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Error("prefix not written")
	}
	for i := 3; i < 128; i++ {
		if buf[i] != 0 {
			t.Fatalf("byte %d not zero-filled after short write", i)
		}
	}
}

func TestSequentialDetection(t *testing.T) {
	d := New(HDD, 4096)
	d.Allocate(10)
	_, seq, err := d.ReadPage(3)
	if err != nil {
		t.Fatal(err)
	}
	if seq {
		t.Error("first access can never be sequential")
	}
	_, seq, _ = d.ReadPage(4)
	if !seq {
		t.Error("page 4 after page 3 should be sequential")
	}
	_, seq, _ = d.ReadPage(4)
	if seq {
		t.Error("re-reading the same page is not sequential")
	}
	_, seq, _ = d.ReadPage(0)
	if seq {
		t.Error("jumping backwards is not sequential")
	}
	s := d.Stats()
	if s.RandomReads != 3 || s.SeqReads != 1 {
		t.Errorf("stats = %+v, want 3 random + 1 seq", s)
	}
}

func TestCostAccounting(t *testing.T) {
	d := New(HDD, 4096)
	d.Allocate(4)
	d.ReadPage(0) // random
	d.ReadPage(1) // seq
	d.ReadPage(2) // seq
	want := DefaultCost(HDD).RandomRead + 2*DefaultCost(HDD).SeqRead
	if got := d.Stats().Elapsed; got != want {
		t.Errorf("elapsed = %v, want %v", got, want)
	}
	d.ResetStats()
	if d.Stats().Elapsed != 0 || d.Stats().Reads() != 0 {
		t.Error("ResetStats should zero the counters")
	}
	// After reset, the next access is charged random again.
	d.ReadPage(3)
	if d.Stats().RandomReads != 1 {
		t.Error("sequential tracker should reset with stats")
	}
}

func TestCostModelOrdering(t *testing.T) {
	hdd := DefaultCost(HDD)
	ssd := DefaultCost(SSD)
	mem := DefaultCost(Memory)
	if !(hdd.RandomRead > ssd.RandomRead && ssd.RandomRead > mem.RandomRead) {
		t.Error("random read cost must order HDD > SSD > memory")
	}
	if hdd.RandomRead < 100*hdd.SeqRead {
		t.Error("HDD random reads should be >=100x sequential reads")
	}
	ratio := float64(ssd.RandomRead) / float64(ssd.SeqRead)
	if ratio > 3 {
		t.Errorf("SSD random/seq ratio %g should be near 1, the paper's key premise", ratio)
	}
}

func TestWriteCosts(t *testing.T) {
	d := New(SSD, 4096)
	d.Allocate(3)
	buf := make([]byte, 4096)
	d.WritePage(0, buf) // random
	d.WritePage(1, buf) // seq
	s := d.Stats()
	if s.RandomWrites != 1 || s.SeqWrites != 1 {
		t.Errorf("write stats = %+v", s)
	}
	want := DefaultCost(SSD).RandomWrite + DefaultCost(SSD).SeqWrite
	if s.Elapsed != want {
		t.Errorf("elapsed = %v, want %v", s.Elapsed, want)
	}
	if s.BytesWritten != 2*4096 {
		t.Errorf("bytes written = %d, want %d", s.BytesWritten, 2*4096)
	}
}

func TestKindString(t *testing.T) {
	if Memory.String() != "mem" || SSD.String() != "SSD" || HDD.String() != "HDD" {
		t.Error("kind names changed; harness output depends on them")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestDefaultPageSize(t *testing.T) {
	d := New(Memory, 0)
	if d.PageSize() != 4096 {
		t.Errorf("default page size = %d, want 4096", d.PageSize())
	}
}

func TestFigure2DevicesClusters(t *testing.T) {
	devs := Figure2Devices()
	if len(devs) < 8 {
		t.Fatalf("expected at least 8 devices, got %d", len(devs))
	}
	// The paper's two clusters: every HDD must offer more GB/$ than every
	// SSD, and every SSD must offer >=2 orders of magnitude more IOPS.
	var minHDDCap, maxSSDCap, minSSDIOPS, maxHDDIOPS float64
	minHDDCap, minSSDIOPS = 1e18, 1e18
	for _, d := range devs {
		switch d.Class {
		case "E-HDD", "C-HDD":
			if d.GBPerUSD < minHDDCap {
				minHDDCap = d.GBPerUSD
			}
			if d.RandomIOPS > maxHDDIOPS {
				maxHDDIOPS = d.RandomIOPS
			}
		case "E-SSD", "C-SSD":
			if d.GBPerUSD > maxSSDCap {
				maxSSDCap = d.GBPerUSD
			}
			if d.RandomIOPS < minSSDIOPS {
				minSSDIOPS = d.RandomIOPS
			}
		default:
			t.Errorf("unknown class %q", d.Class)
		}
	}
	if minHDDCap <= maxSSDCap {
		t.Errorf("HDD capacity cluster (min %g GB/$) must exceed SSD (max %g GB/$)", minHDDCap, maxSSDCap)
	}
	if minSSDIOPS < 100*maxHDDIOPS {
		t.Errorf("SSD IOPS cluster (min %g) must dwarf HDD (max %g)", minSSDIOPS, maxHDDIOPS)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{RandomReads: 2, SeqReads: 3, RandomWrites: 1, Elapsed: time.Second}
	if s.Reads() != 5 || s.Writes() != 1 {
		t.Error("stats totals wrong")
	}
	if s.String() == "" {
		t.Error("stats should format")
	}
}

// Property: after any sequence of writes, reading back returns the last
// written value.
func TestQuickLastWriteWins(t *testing.T) {
	d := New(Memory, 64)
	d.Allocate(8)
	last := make(map[PageID][]byte)
	prop := func(page uint8, val uint8) bool {
		id := PageID(page % 8)
		payload := make([]byte, 64)
		for i := range payload {
			payload[i] = val
		}
		if _, err := d.WritePage(id, payload); err != nil {
			return false
		}
		last[id] = payload
		buf, _, err := d.ReadPage(id)
		if err != nil {
			return false
		}
		for i := range buf {
			if buf[i] != last[id][i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteInstallsFreshImage pins the image contract: a read returns
// the page's current image without copying, a later write installs a
// new image and leaves the one already read unchanged, and the device
// keeps no reference to the caller's buffer.
func TestWriteInstallsFreshImage(t *testing.T) {
	d := New(Memory, 64)
	d.Allocate(2)
	if zero, _, err := d.ReadPage(1); err != nil || len(zero) != 64 || zero[0] != 0 {
		t.Fatalf("never-written page = %v (err %v), want 64 zero bytes", zero, err)
	}
	payload := []byte{1, 2, 3}
	installed, err := d.WritePage(0, payload)
	if err != nil {
		t.Fatal(err)
	}
	payload[0] = 9 // the caller's buffer is its own
	before, _, err := d.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if &before[0] != &installed[0] || before[0] != 1 {
		t.Fatalf("read %v, want the installed image %v", before[:3], installed[:3])
	}
	if _, err := d.WritePage(0, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if before[0] != 1 || before[1] != 2 {
		t.Fatalf("a write changed an image read before it: %v", before[:3])
	}
	after, _, _ := d.ReadPage(0)
	if after[0] != 7 || after[1] != 0 {
		t.Fatalf("read after write = %v, want [7 0 ...]", after[:3])
	}
	if n := testing.AllocsPerRun(100, func() { d.ReadPage(0) }); n != 0 {
		t.Errorf("ReadPage allocates %v times, want 0", n)
	}
}
