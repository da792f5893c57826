// Package device simulates the secondary-storage devices of the paper's
// testbed (Section 6.1): a 10K RPM hard disk, a SATA SSD, and main
// memory. Each device stores pages in RAM and charges accesses against a
// deterministic virtual clock using a per-device cost model, so
// experiments measure exactly the quantity the paper reasons about — the
// number and kind of I/O operations weighted by device characteristics —
// without the noise of real hardware.
//
// The cost models distinguish random from sequential access: a read of
// the page that physically follows the previous read is charged the
// sequential rate, anything else pays the random-access penalty (seek +
// rotational latency on the HDD, a flat operation cost on the SSD). This
// reproduces the property the paper's design exploits: on the HDD
// sequential I/O is orders of magnitude cheaper than random I/O, while on
// the SSD the two are nearly identical.
//
// Pages are immutable images. WritePage never overwrites the bytes of a
// page: it copies the payload into a fresh image and installs that, and
// ReadPage returns the current image itself, with no copy. A caller may
// keep an image it read for as long as it likes and never sees it
// change; it must not write into it, since every later reader of the
// page, and the page store's cache, share the same bytes.
//
// Concurrency: a Device is safe for concurrent use and its read path
// takes no lock. Accounting (Stats, the sequential-access tracker) is
// kept in atomics, and each page's current image is published through
// an atomic pointer, so a read racing a write to the same page returns
// the whole pre- or post-write image, never a torn one.
package device

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// PageID identifies a page on a device. Pages are numbered from 0.
type PageID uint64

// InvalidPage is a sentinel for "no page".
const InvalidPage = PageID(1<<64 - 1)

// Kind enumerates the simulated device classes.
type Kind int

// Device kinds, in increasing random-read cost.
const (
	Memory Kind = iota
	SSD
	HDD
)

// String returns the conventional short name of the device kind.
func (k Kind) String() string {
	switch k {
	case Memory:
		return "mem"
	case SSD:
		return "SSD"
	case HDD:
		return "HDD"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// CostModel gives the virtual-time cost of each operation class on a
// device. Costs are per page of PageSize bytes.
type CostModel struct {
	RandomRead  time.Duration // read of a non-adjacent page
	SeqRead     time.Duration // read of the page following the last access
	RandomWrite time.Duration
	SeqWrite    time.Duration
}

// Stats accumulates I/O accounting for a device. All counters are
// monotonically increasing. Snapshots taken while I/O is in flight are
// internally consistent per counter (each is read atomically) but may
// straddle an operation that has bumped one counter and not yet another;
// quiescent snapshots are exact.
type Stats struct {
	RandomReads  uint64
	SeqReads     uint64
	RandomWrites uint64
	SeqWrites    uint64
	BytesRead    uint64
	BytesWritten uint64
	Elapsed      time.Duration // virtual time charged against this device
}

// Reads returns total page reads of both kinds.
func (s Stats) Reads() uint64 { return s.RandomReads + s.SeqReads }

// Writes returns total page writes of both kinds.
func (s Stats) Writes() uint64 { return s.RandomWrites + s.SeqWrites }

// String formats the stats compactly for harness output.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d(rand=%d,seq=%d) writes=%d elapsed=%v",
		s.Reads(), s.RandomReads, s.SeqReads, s.Writes(), s.Elapsed)
}

// ErrOutOfRange reports access to a page beyond the device size.
var ErrOutOfRange = errors.New("device: page out of range")

// statsCounters is the lock-free backing of Stats.
type statsCounters struct {
	randomReads  atomic.Uint64
	seqReads     atomic.Uint64
	randomWrites atomic.Uint64
	seqWrites    atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
	elapsedNanos atomic.Int64
}

func (c *statsCounters) snapshot() Stats {
	return Stats{
		RandomReads:  c.randomReads.Load(),
		SeqReads:     c.seqReads.Load(),
		RandomWrites: c.randomWrites.Load(),
		SeqWrites:    c.seqWrites.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
		Elapsed:      time.Duration(c.elapsedNanos.Load()),
	}
}

func (c *statsCounters) reset() {
	c.randomReads.Store(0)
	c.seqReads.Store(0)
	c.randomWrites.Store(0)
	c.seqWrites.Store(0)
	c.bytesRead.Store(0)
	c.bytesWritten.Store(0)
	c.elapsedNanos.Store(0)
}

// Device is a simulated page-addressable storage device, safe for
// concurrent use. The page directory is a grow-only list of fixed-size
// chunks, so an entry never moves once allocated; each entry is an
// atomic pointer to the page's current image (nil until the first
// write: the page reads as zeroes). Reads take no lock and all
// accounting is atomic, so concurrent readers never serialize.
//
// Under concurrency the random/sequential classification of an
// individual access depends on interleaving (the tracker holds the
// globally last-touched page), but the totals reported by Stats —
// Stats.Reads(), Stats.Writes(), bytes — are exact.
type Device struct {
	kind     Kind
	name     string
	pageSize int
	cost     CostModel

	allocMu  sync.Mutex                   // serializes Allocate
	chunks   atomic.Pointer[[]*pageChunk] // grow-only; chunks never move
	numPages atomic.Uint64                // published after chunks covers it
	zero     []byte                       // the image of a never-written page

	lastPage atomic.Uint64 // sequential detection; InvalidPage initially
	stats    statsCounters

	realLatency atomic.Int64 // optional real ns slept per I/O op (see SetRealLatency)
}

// chunkPages is the number of directory entries per chunk.
const chunkPages = 512

// pageChunk holds the image pointers of chunkPages consecutive pages.
// An entry points at the first byte of a pageSize-long image: one word
// per page, and no heap object besides the image itself.
type pageChunk [chunkPages]atomic.Pointer[byte]

// New creates a device of the given kind with the default profile for
// that kind (see profiles.go) and a fixed page size in bytes.
func New(kind Kind, pageSize int) *Device {
	return NewWithProfile(Profile{Name: kind.String(), Kind: kind, Cost: DefaultCost(kind)}, pageSize)
}

// NewWithProfile creates a device with an explicit cost profile.
func NewWithProfile(p Profile, pageSize int) *Device {
	if pageSize <= 0 {
		pageSize = 4096
	}
	d := &Device{
		kind:     p.Kind,
		name:     p.Name,
		pageSize: pageSize,
		cost:     p.Cost,
		zero:     make([]byte, pageSize),
	}
	d.chunks.Store(new([]*pageChunk))
	d.lastPage.Store(uint64(InvalidPage))
	return d
}

// Kind returns the device class.
func (d *Device) Kind() Kind { return d.kind }

// Name returns the profile name.
func (d *Device) Name() string { return d.name }

// PageSize returns the page size in bytes.
func (d *Device) PageSize() int { return d.pageSize }

// NumPages returns the number of allocated pages.
func (d *Device) NumPages() uint64 {
	return d.numPages.Load()
}

// SetRealLatency makes every subsequent page access block for perOp of
// real (wall-clock) time in addition to the virtual-clock charge. The
// sleep happens outside all locks, modelling a device whose in-flight
// operations overlap: concurrent probers wait in parallel, exactly as
// they would on real storage with queue depth. Zero (the default)
// disables the sleep, keeping tests and experiments instantaneous. The
// concurrent-probe benchmark uses this to measure how probe throughput
// scales with workers even on machines with few cores.
func (d *Device) SetRealLatency(perOp time.Duration) {
	d.realLatency.Store(int64(perOp))
}

func (d *Device) sleepRealLatency() {
	if ns := d.realLatency.Load(); ns > 0 {
		time.Sleep(time.Duration(ns))
	}
}

// Allocate appends n zeroed pages and returns the id of the first. It
// grows only the directory: a page has no image until its first write.
func (d *Device) Allocate(n int) PageID {
	d.allocMu.Lock()
	defer d.allocMu.Unlock()
	first := d.numPages.Load()
	total := first + uint64(n)
	if chunks := *d.chunks.Load(); uint64(len(chunks))*chunkPages < total {
		grown := make([]*pageChunk, len(chunks), (total+chunkPages-1)/chunkPages)
		copy(grown, chunks)
		for uint64(len(grown))*chunkPages < total {
			grown = append(grown, new(pageChunk))
		}
		d.chunks.Store(&grown)
	}
	d.numPages.Store(total)
	return PageID(first)
}

// entry returns the image pointer of page id, or an ErrOutOfRange
// error naming op. Loading the page count before the directory means a
// page counted as allocated always has its chunk in the loaded
// directory.
func (d *Device) entry(op string, id PageID) (*atomic.Pointer[byte], error) {
	if n := d.numPages.Load(); uint64(id) >= n {
		return nil, fmt.Errorf("%w: %s page %d of %d", ErrOutOfRange, op, id, n)
	}
	chunks := *d.chunks.Load()
	return &chunks[id/chunkPages][id%chunkPages], nil
}

// chargeRead classifies the access against the sequential tracker and
// bumps the read counters.
func (d *Device) chargeRead(id PageID) (sequential bool) {
	prev := d.lastPage.Swap(uint64(id))
	sequential = prev != uint64(InvalidPage) && uint64(id) == prev+1
	if sequential {
		d.stats.seqReads.Add(1)
		d.stats.elapsedNanos.Add(int64(d.cost.SeqRead))
	} else {
		d.stats.randomReads.Add(1)
		d.stats.elapsedNanos.Add(int64(d.cost.RandomRead))
	}
	d.stats.bytesRead.Add(uint64(d.pageSize))
	return sequential
}

// ReadPage returns the current image of page id and charges the
// appropriate cost. It reports whether the access was sequential. The
// image is shared and read-only: the device never changes it, and the
// caller must not either (see the package comment).
func (d *Device) ReadPage(id PageID) (page []byte, sequential bool, err error) {
	e, err := d.entry("read", id)
	if err != nil {
		return nil, false, err
	}
	page = d.zero
	if p := e.Load(); p != nil {
		page = unsafe.Slice(p, d.pageSize)
	}
	sequential = d.chargeRead(id)
	d.sleepRealLatency()
	return page, sequential, nil
}

// WritePage copies buf, zero-padded to the page size, into a fresh
// image, installs it as page id and charges the appropriate cost. The
// page must already be allocated. It returns the installed image, which
// is shared and read-only like every image ReadPage returns; images
// read before the write keep their old contents.
func (d *Device) WritePage(id PageID, buf []byte) ([]byte, error) {
	e, err := d.entry("write", id)
	if err != nil {
		return nil, err
	}
	if len(buf) > d.pageSize {
		return nil, fmt.Errorf("device: payload %d exceeds page size %d", len(buf), d.pageSize)
	}
	page := make([]byte, d.pageSize)
	copy(page, buf)
	e.Store(&page[0])
	prev := d.lastPage.Swap(uint64(id))
	if prev != uint64(InvalidPage) && uint64(id) == prev+1 {
		d.stats.seqWrites.Add(1)
		d.stats.elapsedNanos.Add(int64(d.cost.SeqWrite))
	} else {
		d.stats.randomWrites.Add(1)
		d.stats.elapsedNanos.Add(int64(d.cost.RandomWrite))
	}
	d.stats.bytesWritten.Add(uint64(d.pageSize))
	d.sleepRealLatency()
	return page, nil
}

// Stats returns a snapshot of the accumulated counters.
func (d *Device) Stats() Stats {
	return d.stats.snapshot()
}

// ResetStats zeroes the counters and the sequential-access tracker. Data
// is untouched; experiments call this between the build phase and the
// measured probe phase.
func (d *Device) ResetStats() {
	d.stats.reset()
	d.lastPage.Store(uint64(InvalidPage))
}
