package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the tree's background maintenance layer (DESIGN.md §4):
// the scheduler that owns the structural upkeep the foreground write
// path used to perform inline — reclaiming retired copy-on-write pages
// once their epoch grace period passes, and compacting the index via
// Rebuild when accumulated insert/delete drift pushes the Equation 14
// fpp estimate past the configured threshold.
//
// The contract in one line: foreground structural writers *retire*
// (under the exclusive lock, as before) and then merely *request*
// maintenance; the maintainer (or an explicit Maintain call) *reclaims*
// and *compacts*. Probes carry a cheap epoch-exit hook (endProbe) that
// nudges the maintainer whenever limbo is non-empty, so a quiescent or
// read-only tree no longer pins retired pages until its next structural
// change.

// MaintenanceStats is a point-in-time snapshot of the maintenance
// layer's accounting. All counters are cumulative since the tree was
// built or opened; they keep counting across maintainer restarts.
type MaintenanceStats struct {
	// Running reports whether a background maintainer goroutine is
	// currently live (MaintenanceAuto, or an explicit StartMaintenance).
	Running bool
	// LimboPages is the current number of retired pages awaiting their
	// epoch grace period.
	LimboPages int
	// EffectiveFPP is the drift estimate observed by the most recent
	// maintenance pass (0 until a pass has run).
	EffectiveFPP float64
	// FPPThreshold is the policy's compaction threshold (after
	// defaulting): the Equation 14 estimate at which drift compaction
	// triggers, 1 when drift compaction is disabled. Exposed so layers
	// above the tree — the server's /stats, tests that bound drift — can
	// relate live drift to the compaction point without holding the
	// policy themselves.
	FPPThreshold float64

	// Passes counts maintenance passes (background or explicit Maintain).
	Passes uint64
	// PagesReclaimed counts limbo pages returned to the store's free list
	// by maintenance passes.
	PagesReclaimed uint64
	// Compactions counts drift-triggered whole-tree Rebuilds that
	// succeeded; CompactionFailures counts compactions (full or
	// incremental) that returned an error.
	Compactions        uint64
	CompactionFailures uint64

	// IncrementalPasses counts maintenance passes that compacted a
	// top-drifted leaf subset instead of rebuilding the whole tree
	// (MaintenancePolicy.IncrementalBatch > 0); LeavesCompacted counts
	// the leaves those passes rewrote, including the leaves a batch
	// rewrote before it failed.
	IncrementalPasses uint64
	LeavesCompacted   uint64

	// CompactionMinStall / CompactionMaxStall / CompactionTotalStall
	// aggregate the exclusive-lock hold of every compaction, failed ones
	// included (one whole-tree rebuild, or one bounded incremental batch
	// including its ranking walk). CompactionMaxStall is the longest
	// single writer stall any compaction caused — the headline number
	// the incremental path exists to shrink.
	CompactionMinStall   time.Duration
	CompactionMaxStall   time.Duration
	CompactionTotalStall time.Duration

	// ProbeWakeups counts maintainer nudges armed by the
	// probe-completion epoch-exit hook (at most one per maintenance
	// pass cycle, not one per probe); StructuralRequests counts foreground structural
	// changes that requested maintenance instead of reclaiming inline;
	// DriftWakeups counts writers that published a drift increment past
	// the compaction threshold and nudged the maintainer; TimerWakeups
	// counts periodic ReclaimInterval ticks that found work.
	ProbeWakeups       uint64
	StructuralRequests uint64
	DriftWakeups       uint64
	TimerWakeups       uint64

	// LockMisses counts passes that found the writer lock busy and
	// backed off (TryLock failed); ForcedLocks counts the escalations to
	// a blocking acquire because work was overdue (limbo past the high
	// water mark, fpp past the threshold, or the device growing while
	// reclaimable pages sat in limbo).
	LockMisses  uint64
	ForcedLocks uint64
}

// maintStats is the lock-free backing of MaintenanceStats. It lives on
// the Tree, not the maintainer, so counters survive stop/start cycles
// and explicit Maintain calls account into the same totals.
type maintStats struct {
	passes             atomic.Uint64
	pagesReclaimed     atomic.Uint64
	compactions        atomic.Uint64
	compactionFailures atomic.Uint64
	incrementalPasses  atomic.Uint64
	leavesCompacted    atomic.Uint64
	stallMinNS         atomic.Int64 // 0 = no compaction recorded yet
	stallMaxNS         atomic.Int64
	stallTotalNS       atomic.Int64
	probeWakeups       atomic.Uint64
	structuralRequests atomic.Uint64
	driftWakeups       atomic.Uint64
	timerWakeups       atomic.Uint64
	lockMisses         atomic.Uint64
	forcedLocks        atomic.Uint64
	lastFPPBits        atomic.Uint64
}

// recordCompactionStall folds one compaction's exclusive-lock hold into
// the min/max/total stall aggregates. CAS loops, not locks: the
// recorder may race MaintenanceStats snapshots, never another recorder
// of consequence (compactions run under the exclusive writeMu).
func (s *maintStats) recordCompactionStall(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 1 {
		ns = 1 // a sub-nanosecond hold still counts as a recorded stall
	}
	s.stallTotalNS.Add(ns)
	for {
		cur := s.stallMaxNS.Load()
		if ns <= cur || s.stallMaxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := s.stallMinNS.Load()
		if (cur != 0 && ns >= cur) || s.stallMinNS.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// maintainer is the background goroutine driving the maintenance layer.
// One per Tree at most; the Tree holds it behind an atomic pointer so
// the probe-exit hook can consult it without locks.
type maintainer struct {
	tree *Tree
	wake chan struct{} // coalesced wakeup signal (probe exits, structural requests)
	stop chan struct{}
	done chan struct{}

	// pending arms the probe-exit nudge: endProbe touches the wake
	// channel only on the false→true transition, so probes completing
	// while a wakeup is already queued (or a pass is running) pay one
	// atomic load instead of contending on the channel lock.
	pending atomic.Bool

	// failedUntil (unix nanoseconds) backs a persistently failing
	// compaction off: drift past the threshold is not actionable again
	// before this instant, so a rebuild that keeps erroring does not
	// turn every wakeup into a blocking exclusive-lock hold for another
	// doomed bulk-load scan. Written by the maintainer, read by
	// drift-nudging writers (hence atomic). Explicit Maintain calls
	// ignore it — their caller sees the error directly.
	failedUntil atomic.Int64

	// driftCheckAt is the inserts+deletes total at which the next exact
	// Equation 14 evaluation runs: below it, crossing the threshold is
	// impossible (every drift op moves the estimate by at most
	// 1/numKeys — see rearmDriftCheck), so driftNudge's hot path is two
	// atomic loads and a compare instead of a math.Pow per write.
	driftCheckAt atomic.Uint64

	// lastFresh is the device-extending allocation count observed at
	// the end of the previous pass: growth while limbo is non-empty
	// means the store is extending the device for pages the free list
	// could have supplied — the free-list pressure signal that makes
	// reclamation overdue. misses counts consecutive TryLock failures
	// since the last acquired pass; past missEscalation the maintainer
	// stops being polite, or a tree whose latched writers never go idle
	// (the shared lock is read-held whenever any of them is inside)
	// would starve reclamation indefinitely. Both
	// maintainer-goroutine-only.
	lastFresh uint64
	misses    int

	// waiters is closed when the next maintenance pass has run; writers
	// whose drift reached the ceiling wait on it (awaitPass). nil while
	// no writer waits; guarded by waitMu.
	waitMu  sync.Mutex
	waiters chan struct{}
}

// missEscalation bounds how many consecutive passes the maintainer
// backs off before escalating to one blocking lock acquisition: with
// pending work it stalls writers at most once per missEscalation
// wakeups, instead of never reclaiming under sustained write pressure.
const missEscalation = 16

// limboHighWater is the limbo page count past which the maintainer
// escalates from polite lock acquisition (TryLock, which never stalls
// latched writers) to one blocking acquire.
const limboHighWater = 512

// compactionBackoffIntervals is the failed-compaction cooldown in
// reclaim intervals (50 × the 5ms default ≈ 250ms between retries).
const compactionBackoffIntervals = 50

func newMaintainer(t *Tree) *maintainer {
	fresh, _, _ := t.store.PressureStats()
	m := &maintainer{
		tree: t,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		// Baseline the pressure signal at start-up, or the bulk load's
		// own allocations would read as device growth and force the
		// first contended pass to a blocking lock.
		lastFresh: fresh,
	}
	m.rearmDriftCheck()
	return m
}

// rearmDriftCheck defers the next exact Equation 14 evaluation by the
// drift headroom: a delete adds exactly 1/numKeys to the effective fpp
// (Section 7) and an insert's marginal effect is strictly smaller (the
// derivative of fpp^(1/(1+x)) is bounded by 4e⁻²/|ln fpp| · 1/numKeys
// < 1/numKeys for every design fpp), so from estimate g the threshold
// cannot be crossed in fewer than (threshold-g)×numKeys drift ops.
// Writers skip the transcendental math until that total.
func (m *maintainer) rearmDriftCheck() {
	t := m.tree
	th := t.opts.Maintenance.FPPThreshold
	md := t.loadMeta()
	if th >= 1 || md.numKeys == 0 {
		m.driftCheckAt.Store(^uint64(0)) // compaction disabled: never check
		return
	}
	fpp := t.EffectiveFPP()
	if fpp >= th {
		m.driftCheckAt.Store(0) // actionable now: don't defer
		return
	}
	gap := uint64((th - fpp) * float64(md.numKeys))
	if gap < 1 {
		gap = 1
	}
	m.driftCheckAt.Store(md.inserts + md.deletes + gap)
}

// notify wakes the maintainer without ever blocking the caller; signals
// arriving while one is already pending coalesce.
func (m *maintainer) notify() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// run is the maintainer loop: wait for a signal (probe exit, structural
// request) or the periodic tick, then run one pass. The loop exits when
// Close (or StopMaintenance) closes the stop channel.
func (m *maintainer) run() {
	defer close(m.done)
	ticker := time.NewTicker(m.tree.opts.Maintenance.ReclaimInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-m.wake:
		case <-ticker.C:
			if m.workPending() {
				m.tree.maintStats.timerWakeups.Add(1)
			}
		}
		// Re-arm the probe-exit nudge before the pass: a probe
		// completing mid-pass may be the one that drains the last
		// pinned epoch, and its nudge must queue another pass.
		m.pending.Store(false)
		done := m.takeWaiters()
		m.pass()
		if done != nil {
			close(done)
		}
	}
}

// awaitPass blocks a writer until a maintenance pass that starts after
// the call has run, or the maintainer stops. The writer published its
// drift before calling, so that pass sees the drift and, since drift
// past the threshold is overdue work, takes the lock and compacts it.
func (m *maintainer) awaitPass() {
	m.waitMu.Lock()
	if m.waiters == nil {
		m.waiters = make(chan struct{})
	}
	done := m.waiters
	m.waitMu.Unlock()
	m.notify()
	select {
	case <-done:
	case <-m.stop:
	}
}

// takeWaiters detaches the writers waiting for the next pass; run
// closes the channel it returns once that pass is over.
func (m *maintainer) takeWaiters() chan struct{} {
	m.waitMu.Lock()
	defer m.waitMu.Unlock()
	done := m.waiters
	m.waiters = nil
	return done
}

// nudgeProbe is the probe-exit side of the wake signal: only the
// arming transition touches the channel, so concurrent probe
// completions don't serialize on its lock while limbo drains.
func (m *maintainer) nudgeProbe() {
	if m.pending.CompareAndSwap(false, true) {
		m.tree.maintStats.probeWakeups.Add(1)
		m.notify()
	}
}

// workPending reports whether a pass would have anything productive to
// do: limbo pages whose epoch flip could actually succeed (a straggler
// reader pinning the flip makes limbo work futile — the pass would
// acquire the lock only for reclaim to free nothing), or actionable
// drift past the compaction threshold.
func (m *maintainer) workPending() bool {
	t := m.tree
	if t.limboLen.Load() > 0 && t.readers.canAdvance() {
		return true
	}
	return m.driftActionable()
}

// driftActionable reports drift past the compaction threshold, unless
// a recent compaction failure put retries on cooldown.
func (m *maintainer) driftActionable() bool {
	if time.Now().UnixNano() < m.failedUntil.Load() {
		return false
	}
	return m.tree.driftNeedsCompaction()
}

// overdue reports whether the maintainer should stop being polite about
// lock acquisition: limbo past the high water mark, drift past the
// compaction threshold, or the device growing (fresh, device-extending
// allocations) while reclaimable pages sit in limbo. Limbo-driven
// escalation requires a feasible epoch flip — stalling writers while a
// straggler reader pins the flip would free nothing.
func (m *maintainer) overdue() bool {
	t := m.tree
	if m.driftActionable() {
		return true
	}
	limbo := t.limboLen.Load()
	if limbo == 0 || !t.readers.canAdvance() {
		return false
	}
	if limbo > limboHighWater {
		return true
	}
	fresh, _, _ := t.store.PressureStats()
	return fresh > m.lastFresh
}

// pass runs one maintenance pass. Lock acquisition is TryLock-first: a
// TryLock never queues on writeMu, so a busy tree's latched writers are
// never stalled behind a waiting maintainer (Go's RWMutex blocks new
// RLocks once a writer waits). Only when work is overdue does the
// maintainer pay for one blocking acquire — the same bounded stall any
// foreground structural change causes.
func (m *maintainer) pass() {
	if !m.workPending() {
		return
	}
	t := m.tree
	if !t.writeMu.TryLock() {
		t.maintStats.lockMisses.Add(1)
		m.misses++
		if m.misses < missEscalation && !m.overdue() {
			return // back off; the ticker or the next signal retries
		}
		t.maintStats.forcedLocks.Add(1)
		t.writeMu.Lock()
	}
	m.misses = 0
	// Compaction errors are accounted in the stats; the maintainer has
	// no caller to surface them to, so a failure puts retries on a
	// cooldown instead — without it, unactionable drift would turn
	// every wakeup into a blocking lock hold for another doomed
	// bulk-load scan.
	more, err := t.maintainLocked(m.driftActionable())
	if err != nil {
		backoff := compactionBackoffIntervals * t.opts.Maintenance.ReclaimInterval
		m.failedUntil.Store(time.Now().Add(backoff).UnixNano())
	}
	// Re-baseline the pressure signal while still holding the lock (no
	// structural writer can allocate now): the pass's own compaction
	// allocations must not read as device growth next time. The drift
	// crossing bound is re-derived too — a compaction just reset the
	// counters, so the old bound no longer describes the new snapshot.
	fresh, _, _ := t.store.PressureStats()
	m.lastFresh = fresh
	m.rearmDriftCheck()
	t.writeMu.Unlock()
	// An incremental batch that left drift past the threshold queues the
	// next batch — after the unlock, so latched writers get their window.
	// Progress is guaranteed (each pass sheds the current top-drifted
	// leaves), so this converges unless writers re-earn drift as fast as
	// it is shed, in which case back-to-back bounded batches are exactly
	// the intended behavior.
	if more {
		m.notify()
	}
}

// driftNeedsCompaction reports whether the Equation 14 drift estimate
// has crossed the policy threshold. Only post-build drift is
// compactable: with zero recorded inserts and deletes a Rebuild would
// reproduce the same tree, so it is never triggered.
func (t *Tree) driftNeedsCompaction() bool {
	th := t.opts.Maintenance.FPPThreshold
	if th >= 1 {
		return false
	}
	m := t.loadMeta()
	if m.inserts == 0 && m.deletes == 0 {
		return false
	}
	return t.EffectiveFPP() >= th
}

// maintainLocked runs one maintenance pass under the exclusive writer
// lock: reclaim what the epoch scheme allows, compact if allowed and
// drift crossed the threshold, then reclaim again (a whole-tree rebuild
// retires the old tree's pages, and with quiescent readers the second
// flip frees the previous batch immediately). allowCompact lets the
// maintainer skip compaction during its failure cooldown; explicit
// Maintain calls always pass true, since their caller sees the error
// directly.
//
// With MaintenancePolicy.IncrementalBatch > 0 the compaction step
// rewrites only the top-drifted k leaves (compactIncrementalLocked)
// instead of the whole tree, bounding the lock hold; when drift is
// still past the threshold afterwards the pass reports more=true so the
// caller schedules another batch *after releasing the lock*, giving
// latched writers a window between batches — that release is the whole
// point of the incremental path. A batch that finds no attributable
// leaf drift while the estimate is past the threshold (pathological:
// counters desynced by a half-failed structural change) falls back to
// the whole-tree rebuild, which resets everything.
func (t *Tree) maintainLocked(allowCompact bool) (more bool, err error) {
	st := &t.maintStats
	st.passes.Add(1)
	if n := t.reclaim(); n > 0 {
		st.pagesReclaimed.Add(uint64(n))
	}
	fpp := t.EffectiveFPP()
	st.lastFPPBits.Store(math.Float64bits(fpp))
	if allowCompact && t.driftNeedsCompaction() {
		batch := t.opts.Maintenance.IncrementalBatch
		begin := time.Now()
		full := batch <= 0
		var compacted int
		if !full {
			compacted, err = t.compactIncrementalLocked(batch)
			if err == nil && compacted == 0 {
				full = true
			}
		}
		if full && err == nil {
			err = t.rebuildLocked()
		}
		// Writers waited out the hold whether or not the compaction
		// succeeded, and a batch that failed part-way keeps the leaves
		// it rewrote before the failure, their drift shed.
		st.recordCompactionStall(time.Since(begin))
		st.leavesCompacted.Add(uint64(compacted))
		switch {
		case err != nil:
			st.compactionFailures.Add(1)
		case full:
			st.compactions.Add(1)
		default:
			st.incrementalPasses.Add(1)
			more = t.driftNeedsCompaction()
		}
		if err == nil || compacted > 0 {
			st.lastFPPBits.Store(math.Float64bits(t.EffectiveFPP()))
			// The compaction moved the drift counters, so a live
			// maintainer's crossing bound no longer describes the new
			// snapshot. Re-derive it here — not only in the maintainer's
			// own pass — or an explicit Maintain would leave a stale
			// bound that silences writer nudges until it is re-reached.
			if m := t.maint.Load(); m != nil {
				m.rearmDriftCheck()
			}
		}
	}
	if n := t.reclaim(); n > 0 {
		st.pagesReclaimed.Add(uint64(n))
	}
	return more, err
}

// maintRequest is how foreground structural writers (split, append,
// Rebuild — all under the exclusive lock) hand off the reclamation they
// used to perform inline. With a live maintainer the request is one
// non-blocking channel send; in manual mode the writer reclaims
// opportunistically inline, preserving the pre-maintainer behavior.
func (t *Tree) maintRequest() {
	if m := t.maint.Load(); m != nil {
		t.maintStats.structuralRequests.Add(1)
		m.notify()
		return
	}
	t.reclaim()
}

// driftNudge is called by writers after a successful mutation, outside
// all tree locks: when a maintainer is live and the published drift has
// crossed the compaction threshold, the writer signals it and yields
// its timeslice, so compaction usually starts within one scheduling
// round instead of one reclaim tick. Yielding bounds nothing when the
// host itself keeps the maintainer off the CPU while writers run on, so
// a writer whose drift reached the ceiling (driftCeiling) waits for the
// maintainer's next pass instead: drift then stops one write per writer
// past the ceiling. The common case (drift counters short of the cached
// crossing bound) is three atomic loads and a compare; the exact
// Equation 14 estimate runs only inside the final approach to the
// threshold. Writers still never perform maintenance — they only
// request it, or wait for it.
func (t *Tree) driftNudge() {
	m := t.maint.Load()
	if m == nil {
		return
	}
	md := t.loadMeta()
	if md.inserts+md.deletes < m.driftCheckAt.Load() {
		return
	}
	if time.Now().UnixNano() < m.failedUntil.Load() {
		return // compaction on failure cooldown: stay quiet
	}
	if !t.driftNeedsCompaction() {
		m.rearmDriftCheck()
		return
	}
	t.maintStats.driftWakeups.Add(1)
	if t.EffectiveFPP() >= t.driftCeiling() {
		m.awaitPass()
		return
	}
	m.notify()
	runtime.Gosched()
}

// driftCeiling is the effective fpp at which writers stop adding drift
// until the maintainer has run: the compaction threshold plus a quarter
// of the headroom between the design fpp and the threshold.
func (t *Tree) driftCeiling() float64 {
	th := t.opts.Maintenance.FPPThreshold
	return th + (th-t.opts.FPP)/4
}

// StartMaintenance launches the background maintainer goroutine if none
// is running. BulkLoad and Open call it automatically under
// MaintenanceAuto; callers on MaintenanceManual may start one
// explicitly. Pair with Close.
func (t *Tree) StartMaintenance() {
	m := newMaintainer(t)
	if t.maint.CompareAndSwap(nil, m) {
		go m.run()
	}
}

// StopMaintenance stops the background maintainer, if any, and waits
// for its current pass to drain. The tree remains fully usable;
// structural writers fall back to inline reclamation (manual mode
// behavior). Close calls it.
func (t *Tree) StopMaintenance() {
	m := t.maint.Swap(nil)
	if m == nil {
		return
	}
	close(m.stop)
	<-m.done
}

// Close shuts the tree's maintenance layer down: it stops the
// background maintainer (waiting for an in-flight pass to finish) and
// makes a final best-effort reclamation sweep so a quiescent tree
// releases its whole limbo to the store's free list. The tree itself
// stays readable — Close owns no I/O resources — but a closed tree no
// longer performs background maintenance until StartMaintenance is
// called again. Close is idempotent and safe to call concurrently with
// probes and writers.
func (t *Tree) Close() error {
	t.StopMaintenance()
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	// Two flips drain both limbo buckets when readers are quiescent; a
	// still-registered reader legitimately blocks the flip, and the
	// pages stay in limbo for a later Maintain or maintainer restart.
	for i := 0; i < 2; i++ {
		if n := t.reclaim(); n > 0 {
			t.maintStats.pagesReclaimed.Add(uint64(n))
		}
	}
	return nil
}

// Maintain runs synchronous maintenance to completion: reclaim whatever
// the epoch scheme allows and compact if the drift threshold is
// crossed. It is the manual-mode counterpart of the background
// maintainer and works in every mode (an explicit call is manual by
// definition); it blocks for the exclusive writer lock, like any
// structural change. Under an incremental policy it runs bounded
// batches back to back — releasing the lock between them, like the
// maintainer — until drift is below the threshold; each batch makes
// progress, so the loop terminates. The error, if any, is the
// compaction's.
func (t *Tree) Maintain() error {
	for {
		t.writeMu.Lock()
		more, err := t.maintainLocked(true)
		t.writeMu.Unlock()
		if err != nil || !more {
			return err
		}
	}
}

// MaintenanceStats returns a snapshot of the maintenance layer's
// accounting. Safe to call from any goroutine at any time.
func (t *Tree) MaintenanceStats() MaintenanceStats {
	st := &t.maintStats
	return MaintenanceStats{
		Running:              t.maint.Load() != nil,
		LimboPages:           int(t.limboLen.Load()),
		EffectiveFPP:         math.Float64frombits(st.lastFPPBits.Load()),
		FPPThreshold:         t.opts.Maintenance.FPPThreshold,
		Passes:               st.passes.Load(),
		PagesReclaimed:       st.pagesReclaimed.Load(),
		Compactions:          st.compactions.Load(),
		CompactionFailures:   st.compactionFailures.Load(),
		IncrementalPasses:    st.incrementalPasses.Load(),
		LeavesCompacted:      st.leavesCompacted.Load(),
		CompactionMinStall:   time.Duration(st.stallMinNS.Load()),
		CompactionMaxStall:   time.Duration(st.stallMaxNS.Load()),
		CompactionTotalStall: time.Duration(st.stallTotalNS.Load()),
		ProbeWakeups:         st.probeWakeups.Load(),
		StructuralRequests:   st.structuralRequests.Load(),
		DriftWakeups:         st.driftWakeups.Load(),
		TimerWakeups:         st.timerWakeups.Load(),
		LockMisses:           st.lockMisses.Load(),
		ForcedLocks:          st.forcedLocks.Load(),
	}
}
