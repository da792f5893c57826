package core

import (
	"fmt"

	"bftree/internal/branch"
	"bftree/internal/device"
	"bftree/internal/heapfile"
)

// splitEnumLimit caps the key-domain enumeration of the probe-based
// Algorithm 2 split. Wider leaf key ranges fall back to rebuilding the
// leaf from its data pages, which is exact and bounded by the leaf's page
// count (the paper notes enumeration is impractical for very-high-
// cardinality domains, Section 7).
const splitEnumLimit = 1 << 20

// writeLeaf serializes and writes a leaf.
func (t *Tree) writeLeaf(pid device.PageID, l *bfLeaf) error {
	if t.leafWriteFault != nil {
		if err := t.leafWriteFault(pid); err != nil {
			return err
		}
	}
	page, err := encodeBFLeaf(l)
	if err != nil {
		return err
	}
	return t.store.WritePage(pid, page)
}

// Insert implements Algorithm 3: route to the BF-leaf for key, split if
// the leaf is at its key capacity, then update the key range, the key
// count and the Bloom filter of the data page holding the tuple. The
// data page pid must fall inside the leaf's page range, or extend the
// file's tail (appends), mirroring the paper's assumption that data stays
// ordered or partitioned on the indexed attribute.
//
// Insert is a flush of one entry (insertBatch): Section 4.2's
// update-intensive mode only accumulates inserts before applying this
// same algorithm leaf by leaf. It is safe to call concurrently with any
// number of probes and writers. A non-structural insert — the leaf
// absorbs the key in place — runs under the shared writer lock plus the
// target leaf's latch, so inserts into disjoint leaves proceed in
// parallel; an insert that needs a structural change (append past the
// tail, split at capacity) escalates to the exclusive writer lock
// (DESIGN.md §3).
func (t *Tree) Insert(key uint64, pid device.PageID) error {
	_, err := t.insertBatch([]pendingInsert{{key: key, pid: pid}})
	return err
}

// insertBatch applies entries, sorted by key, and returns how many it
// applied: on error, entries[n:] are not applied and entries[:n] are
// durable. Each run of entries that routes to one leaf and fits in it
// is absorbed in one latched leaf rewrite (absorbRun). An entry that
// needs structural work — an append past the tail or a split at
// capacity — escalates alone to the exclusive lock; insertLocked
// re-descends, so if another writer did the structural work in between
// it lands on the in-place path.
func (t *Tree) insertBatch(entries []pendingInsert) (int, error) {
	n := 0
	for n < len(entries) {
		applied, err := t.absorbRun(entries[n:])
		if err == nil && applied == 0 {
			t.writeMu.Lock()
			err = t.insertLocked(entries[n].key, entries[n].pid)
			t.writeMu.Unlock()
			applied = 1
		}
		if err != nil {
			return n, err
		}
		n += applied
		// Outside all tree locks: nudge the maintainer if this step's
		// published drift crossed the compaction threshold.
		t.driftNudge()
	}
	return n, nil
}

// absorbRun applies the longest prefix of entries that routes to the
// head entry's leaf and absorbs in place, under the shared writer lock
// in one rewriteLatched call, and reports how many entries it applied.
// Zero with a nil error means the head entry needs the exclusive
// structural path: its page lies outside the leaf's range, or it is a
// new key on a leaf at its Equation 5 capacity. On error nothing was
// applied: the leaf image is written only after the whole run absorbed.
func (t *Tree) absorbRun(entries []pendingInsert) (int, error) {
	t.writeMu.RLock()
	defer t.writeMu.RUnlock()
	// The shared lock freezes the structure, so the leaf pid and its
	// route bound stay valid for the whole run. The descent leaves the
	// leaf image undecoded: rewriteLatched re-reads it under the latch.
	leafPid, _, bound, err := indexReader{t: t}.descend(t.loadMeta().root, entries[0].key, true, nil)
	if err != nil {
		return 0, err
	}
	n, newKeys := 0, uint32(0)
	err = t.rewriteLatched(leafPid, func(leaf *bfLeaf) (bool, error) {
		for ; n < len(entries) && entries[n].key <= bound; n++ {
			e := entries[n]
			if e.pid < leaf.minPid || e.pid > leaf.maxPid {
				break // append or disorder: structural path
			}
			applied, isNew, err := t.absorbIntoLeaf(leaf, e.key, e.pid)
			if err != nil {
				return false, err
			}
			if !applied {
				break // split needed: structural path
			}
			if isNew {
				newKeys++
			}
		}
		// The run's new keys are drift charged to this leaf, in the same
		// image write that records them (the per-leaf accounting
		// invariant).
		leaf.driftIns += newKeys
		return n > 0, nil
	})
	if err != nil {
		return 0, err
	}
	// The run counts only once its leaf write has landed.
	if newKeys > 0 {
		t.publish(func(m *treeMeta) { m.inserts += uint64(newKeys) })
	}
	return n, nil
}

// rewriteLatched is the latched tier of every non-structural write. It
// latches the leaf at leafPid, re-reads and decodes its image, applies
// mutate, and writes the leaf back when mutate reports a change. The
// caller holds the shared writer lock, which guarantees leafPid is
// still the leaf the caller routed to: latched rewrites never move a
// leaf's page range or its separators, and never narrow its key range.
// (Compaction's in-place rewrite, compactLeafLocked, may narrow the key
// range to the keys it finds, but it runs under the exclusive lock, so
// no latched writer is inside any leaf meanwhile.) The re-read is what
// the latch protects: another latched writer may have rewritten the
// leaf since the caller's descent read it.
func (t *Tree) rewriteLatched(leafPid device.PageID, mutate func(leaf *bfLeaf) (changed bool, err error)) error {
	mu := t.latches.lock(leafPid)
	defer mu.Unlock()
	leaf, err := indexReader{t: t}.leaf(leafPid)
	if err != nil {
		return err
	}
	changed, err := mutate(leaf)
	if err != nil || !changed {
		return err
	}
	return t.writeLeaf(leafPid, leaf)
}

// absorbIntoLeaf applies one key→page association to a decoded leaf in
// place: filter update, key-range widening, and the distinct-key count.
// Shared by the latched and exclusive insert paths and by Flush, so the
// accounting cannot diverge between them. If the association is new and
// the leaf sits at its Equation 5 capacity, nothing is changed and
// applied=false: the caller must split first. An association the target
// filter already claims is always absorbed in place — it cannot grow
// the distinct-key count, so capacity is irrelevant.
//
// isNew is judged per target filter, not leaf-wide, which makes numKeys
// a conservative upper bound on the leaf's distinct keys: a key indexed
// under two page groups counts twice, and the delete side decrements
// only when the key vanishes from every filter (removeKey's
// last-association rule) — both rules err on the high side of the
// capacity check. The leaf-wide alternative (count only keys no filter
// claims) would undercount as the leaf fills: near design load the
// chance that some filter false-positively claims a genuinely new key
// approaches S×fpp, disabling the capacity guard exactly when it
// matters. A symmetric per-filter decrement on delete is no better:
// bulk load counts a key spanning two page groups once, so per-filter
// decrements would push numKeys below the true distinct load and let
// overloaded filters degrade the fpp silently. The residual cost of
// the chosen rules — insert-then-delete churn of multi-group keys can
// ratchet numKeys up — is bounded: every split recounts its halves
// exactly.
func (t *Tree) absorbIntoLeaf(leaf *bfLeaf, key uint64, pid device.PageID) (applied, isNew bool, err error) {
	isNew = !leaf.probeOne(leaf.bfIndexOf(pid), key)
	if isNew && uint64(leaf.numKeys)+1 > t.geo.KeysPerLeaf {
		return false, true, nil
	}
	if err := leaf.addKey(key, pid); err != nil {
		return false, false, err
	}
	if key < leaf.minKey {
		leaf.minKey = key
	}
	if key > leaf.maxKey {
		leaf.maxKey = key
	}
	if isNew {
		leaf.numKeys++
	}
	return true, isNew, nil
}

// insertLocked is the structural path of one insert; callers hold
// writeMu exclusively.
func (t *Tree) insertLocked(key uint64, pid device.PageID) error {
	var path []branch.Frame
	leafPid, buf, _, err := indexReader{t: t}.descend(t.loadMeta().root, key, true, &path)
	if err != nil {
		return err
	}
	leaf, err := decodeBFLeaf(buf)
	if err != nil {
		return err
	}

	// Appends past the last covered page open a fresh leaf.
	if pid > leaf.maxPid {
		if leaf.next != device.InvalidPage {
			return fmt.Errorf("%w: page %d beyond leaf range [%d,%d] of a non-tail leaf",
				ErrKeyRange, pid, leaf.minPid, leaf.maxPid)
		}
		return t.appendLeaf(key, pid, leaf, leafPid, path)
	}
	if pid < leaf.minPid {
		return fmt.Errorf("%w: page %d before leaf range [%d,%d]; data must stay ordered",
			ErrKeyRange, pid, leaf.minPid, leaf.maxPid)
	}

	// Non-structural insert: the leaf keeps its pid and is rewritten in
	// place. Page writes are atomic at the store level, so a concurrent
	// probe sees either the pre- or the post-insert leaf image — both
	// consistent trees. absorbIntoLeaf refuses only a new key on a leaf
	// at its Equation 5 capacity, which is the split trigger.
	applied, isNew, err := t.absorbIntoLeaf(leaf, key, pid)
	if err != nil {
		return err
	}
	if !applied {
		if err := t.splitLeaf(leaf, leafPid, path); err != nil {
			return err
		}
		// Re-descend: the key now routes to one of the halves.
		return t.insertLocked(key, pid)
	}
	if isNew {
		leaf.driftIns++
	}
	if err := t.writeLeaf(leafPid, leaf); err != nil {
		return err
	}
	if isNew {
		t.publish(func(m *treeMeta) { m.inserts++ })
	}
	return nil
}

// Delete removes one key→page association. Counting-filter leaves
// delete physically (Section 7's deletable-filter alternative); standard
// leaves only record the delete, which degrades the effective fpp by the
// additive term of Section 7 until the leaf is rebuilt.
//
// Routing mirrors Search, not Insert: insert routing sends a key equal
// to a separator right, but duplicates of a separator key trail in the
// *left* leaf, so Delete descends leftmost and walks every chained leaf
// whose [minKey, maxKey] covers the key, removing the association from
// each leaf whose page range holds pid (post-split halves may overlap by
// one page group, so more than one leaf can claim it). The drift counter
// moves only when a covering filter actually claimed the association;
// a counting-filter delete that finds none returns ErrNotIndexed.
//
// Delete is always non-structural: it runs under the shared writer lock
// with per-leaf latches, in parallel with inserts and deletes on other
// leaves.
func (t *Tree) Delete(key uint64, pid device.PageID) error {
	err := t.delete(key, pid)
	if err == nil {
		// Outside all tree locks: nudge the maintainer if this delete's
		// published drift crossed the compaction threshold.
		t.driftNudge()
	}
	return err
}

func (t *Tree) delete(key uint64, pid device.PageID) error {
	t.writeMu.RLock()
	defer t.writeMu.RUnlock()
	counting := t.opts.Filter == CountingFilter
	removed := false
	err := indexReader{t: t}.coveringLeaves(t.loadMeta().root, key,
		func(leafPid device.PageID, leaf *bfLeaf) (bool, error) {
			// Standard filters cannot clear bits, so only the first
			// claiming leaf records the logical delete; a counting delete
			// removes the association from every leaf that claims it.
			if pid < leaf.minPid || pid > leaf.maxPid || (removed && !counting) ||
				!leaf.probeOne(leaf.bfIndexOf(pid), key) {
				return false, nil
			}
			return false, t.rewriteLatched(leafPid, func(leaf *bfLeaf) (bool, error) {
				// A racing counting delete may have removed the
				// association since the walk read this leaf.
				if !leaf.probeOne(leaf.bfIndexOf(pid), key) {
					return false, nil
				}
				if counting {
					// The distinct-key count drops only when the key's
					// last association in the leaf is gone: a key still
					// claimed on other pages keeps its slot in the
					// Equation 5 capacity check.
					lastGone, err := leaf.removeKey(key, pid)
					if err != nil {
						return false, err
					}
					if lastGone && leaf.numKeys > 0 {
						leaf.numKeys--
					}
				}
				// One published global decrement is charged to exactly
				// one leaf, in the image write that records it (the
				// per-leaf accounting invariant).
				if !removed {
					leaf.driftDel++
				}
				removed = true
				return true, nil
			})
		})
	if err != nil {
		return err
	}
	if !removed {
		if counting {
			return fmt.Errorf("%w: key %d on page %d", ErrNotIndexed, key, pid)
		}
		// A logical delete of an unindexed association records nothing:
		// counting it would overstate the Section 7 drift term.
		return nil
	}
	t.publish(func(m *treeMeta) { m.deletes++ })
	return nil
}

// appendLeaf grows the tree at its right edge: a new leaf covering the
// page range starting at pid, pre-sized to the maximum filter count so
// later appends land in it without resizing. The new leaf goes to a
// freshly allocated page; the old tail keeps its pid and only has its
// chain pointer updated (a page-atomic write), so the sole structural
// edit — inserting the new separator and child — is done copy-on-write
// up the path and published as one new snapshot.
func (t *Tree) appendLeaf(key uint64, pid device.PageID, lastLeaf *bfLeaf, lastPid device.PageID, path []branch.Frame) error {
	maxS := maxFiltersPerLeaf(t.geo)
	posPerBF := t.geo.positionsFor(maxS, t.opts.Filter)
	span := device.PageID(maxS*t.opts.Granularity) - 1
	o := t.opts
	o.Hashes = hashesFor(t.opts.Hashes, posPerBF, t.geo.KeysPerLeaf, maxS)
	nl := newBFLeaf(pid, pid+span, o, posPerBF, maxS, t.geo.PageSize)
	if err := nl.addKey(key, pid); err != nil {
		return err
	}
	nl.minKey = key
	nl.maxKey = key
	nl.numKeys = 1
	nl.driftIns = 1 // the appended key is post-build drift, charged here
	newPid := t.store.Allocate(1)
	nl.next = lastLeaf.next // InvalidPage: this is the new tail
	if err := t.writeLeaf(newPid, nl); err != nil {
		t.store.Free(newPid) // never linked: immediately reusable
		return err
	}
	newRoot, added, grew, fresh, retired, err := t.cowPath(path, lastPid, branch.Child{MinKey: key, Pid: newPid})
	if err != nil {
		t.store.Free(newPid)
		return err
	}
	// Chain the old tail to the new leaf, now that nothing can fail and
	// leave a linked-but-unindexed tail behind. Probes racing this see
	// the tail either without the appended leaf (the pre-insert
	// snapshot) or with it fully written — both consistent.
	lastLeaf.next = newPid
	if err := t.writeLeaf(lastPid, lastLeaf); err != nil {
		// The snapshot was never published, so every page cowPath wrote
		// (including a grown root) is unreachable: free it all now, or
		// the live + free + limbo page economy leaks.
		t.store.Free(newPid)
		t.store.Free(fresh...)
		return err
	}
	t.publish(func(m *treeMeta) {
		m.root = newRoot
		m.height += grew
		m.numLeaves++
		m.numNodes += 1 + added
		m.numKeys++
		m.inserts++
	})
	t.retire(retired...)
	t.maintRequest()
	return nil
}

// splitLeaf implements Algorithm 2: divide the leaf's key range at its
// midpoint, discover each half's page range by probing the old filters
// for every key in the domain, and build two fresh leaves from the
// probe results.
// False positives of the old filters carry into the new ones, which is
// exactly the accuracy contract of the paper. Leaves whose key span
// exceeds splitEnumLimit are rebuilt exactly from their data pages
// instead.
//
// The split is copy-on-write: both halves and every internal node on
// the descent path are written to freshly allocated pages, then the new
// root is published as one snapshot. The pre-split leaf and the old
// path stay frozen until every probe that could still reach them has
// drained (the epoch grace period of meta.go), after which their pages
// return to the store's free list.
func (t *Tree) splitLeaf(leaf *bfLeaf, leafPid device.PageID, path []branch.Frame) error {
	var left, right *bfLeaf
	var err error
	// The natural span check maxKey-minKey+1 wraps to zero for a leaf
	// covering the whole uint64 domain, which would select enumeration
	// with span 0; the minus-one form is overflow-safe and still sends
	// wide leaves to the exact rebuild.
	exact := leaf.maxKey-leaf.minKey >= splitEnumLimit
	if exact {
		left, right, err = t.splitByRebuild(leaf)
	} else {
		left, right, err = t.splitByProbe(leaf)
	}
	if err != nil {
		return err
	}
	// Drift accounting across the split. A probe-based split carries the
	// old filters' state (false positives and all) into the halves, so
	// the leaf's drift contribution survives and is transferred to them —
	// the exact split point of each unit is unknowable, so it is divided,
	// preserving the sum. An exact rebuild re-derives the halves from the
	// data pages: the absorbed inserts become build-time content and the
	// logical deletes are resurrected, so the old leaf's contribution is
	// shed from the global counters instead — the same decrement rule as
	// incremental compaction (compactLeafLocked).
	var shedIns, shedDel uint64
	if exact {
		shedIns, shedDel = uint64(leaf.driftIns), uint64(leaf.driftDel)
	} else {
		left.driftIns = leaf.driftIns / 2
		right.driftIns = leaf.driftIns - left.driftIns
		left.driftDel = leaf.driftDel / 2
		right.driftDel = leaf.driftDel - left.driftDel
	}

	leftPid := t.store.Allocate(1)
	rightPid := t.store.Allocate(1)
	right.next = leaf.next
	left.next = rightPid
	if err := t.writeLeaf(leftPid, left); err != nil {
		t.store.Free(leftPid, rightPid) // never linked: immediately reusable
		return err
	}
	if err := t.writeLeaf(rightPid, right); err != nil {
		t.store.Free(leftPid, rightPid)
		return err
	}
	// Locate the predecessor leaf now; the relink itself happens after
	// the last fallible step below.
	predPid, err := t.predecessorLeaf(path)
	if err != nil {
		t.store.Free(leftPid, rightPid)
		return err
	}
	newRoot, added, grew, fresh, retired, err := t.cowPath(path, leftPid, branch.Child{MinKey: right.minKey, Pid: rightPid})
	if err != nil {
		t.store.Free(leftPid, rightPid)
		return err
	}
	// Relink the predecessor's chain pointer (page-atomic) so
	// current-snapshot range scans reach the halves; running it last
	// means a failed split never leaks linked pages. A probe that
	// already followed the old pointer keeps traversing the frozen
	// pre-split leaf, which covers the same keys and pages and answers
	// identically. On failure the unpublished cowPath pages are freed
	// along with the halves — same page-economy rule as appendLeaf.
	if predPid != device.InvalidPage {
		pred, err := indexReader{t: t}.leaf(predPid)
		if err != nil {
			t.store.Free(leftPid, rightPid)
			t.store.Free(fresh...)
			return err
		}
		pred.next = leftPid
		if err := t.writeLeaf(predPid, pred); err != nil {
			t.store.Free(leftPid, rightPid)
			t.store.Free(fresh...)
			return err
		}
	}
	t.publish(func(m *treeMeta) {
		m.root = newRoot
		m.height += grew
		m.numLeaves++
		m.numNodes += 1 + added
		if m.firstLeaf == leafPid {
			m.firstLeaf = leftPid
		}
		m.inserts -= min(m.inserts, shedIns)
		m.deletes -= min(m.deletes, shedDel)
	})
	t.retire(leafPid)
	t.retire(retired...)
	t.maintRequest()
	return nil
}

// predecessorLeaf returns the pid of the leaf chained immediately
// before the leaf at the bottom of path, or InvalidPage when that leaf
// is the leftmost: the last leaf under the nearest left-sibling pointer
// along the path, which rightmost routing of the largest key reaches.
func (t *Tree) predecessorLeaf(path []branch.Frame) (device.PageID, error) {
	for lv := len(path) - 1; lv >= 0; lv-- {
		if f := path[lv]; f.Slot > 0 {
			pid, _, _, err := indexReader{t: t}.descend(f.LeftSibling(), ^uint64(0), true, nil)
			return pid, err
		}
	}
	return device.InvalidPage, nil
}

// keyPages maps a surviving key to the page groups it matched.
type keyPages struct {
	key  uint64
	bids []int
}

// splitByProbe enumerates [minKey, maxKey], probing the old leaf for
// every key (Algorithm 2 lines 7-17), then packs the halves.
func (t *Tree) splitByProbe(leaf *bfLeaf) (*bfLeaf, *bfLeaf, error) {
	midKey := leaf.minKey + (leaf.maxKey-leaf.minKey)/2
	var lowKeys, highKeys []keyPages
	for k := leaf.minKey; ; k++ {
		if bids := leaf.probe(k); len(bids) > 0 {
			if k <= midKey {
				lowKeys = append(lowKeys, keyPages{key: k, bids: bids})
			} else {
				highKeys = append(highKeys, keyPages{key: k, bids: bids})
			}
		}
		if k == leaf.maxKey {
			break
		}
	}
	return t.packHalves(leaf, lowKeys, highKeys)
}

// splitByRebuild reads the leaf's data pages and rebuilds both halves
// exactly. Used when the key domain is too wide to enumerate.
func (t *Tree) splitByRebuild(leaf *bfLeaf) (*bfLeaf, *bfLeaf, error) {
	midKey := leaf.minKey + (leaf.maxKey-leaf.minKey)/2
	last := t.lastDataPage()
	hi := leaf.maxPid
	if hi > last {
		hi = last
	}
	var lowKeys, highKeys []keyPages
	seenLow := make(map[uint64]int)  // key → index in lowKeys
	seenHigh := make(map[uint64]int) // key → index in highKeys
	inLeaf := heapfile.Keys{Lo: leaf.minKey, Hi: leaf.maxKey}
	var tuples [][]byte
	for pid := leaf.minPid; pid <= hi; pid++ {
		var err error
		if tuples, err = t.file.AppendMatches(tuples[:0], pid, t.fieldIdx, inLeaf); err != nil {
			return nil, nil, err
		}
		bid := leaf.bfIndexOf(pid)
		for _, tup := range tuples {
			k := t.file.Schema().Get(tup, t.fieldIdx)
			var seen map[uint64]int
			var list *[]keyPages
			if k <= midKey {
				seen, list = seenLow, &lowKeys
			} else {
				seen, list = seenHigh, &highKeys
			}
			i, ok := seen[k]
			if !ok {
				*list = append(*list, keyPages{key: k})
				i = len(*list) - 1
				seen[k] = i
			}
			kp := &(*list)[i]
			if len(kp.bids) == 0 || kp.bids[len(kp.bids)-1] != bid {
				kp.bids = append(kp.bids, bid)
			}
		}
	}
	return t.packHalves(leaf, lowKeys, highKeys)
}

// packHalves builds the two post-split leaves from per-key page-group
// assignments (Algorithm 2 lines 18-29). The left half covers
// [leaf.minPid, max page of low keys]; the right half covers [min page of
// high keys, leaf.maxPid]; with a key straddling the boundary the two
// ranges may overlap by one page group, as in the paper.
func (t *Tree) packHalves(leaf *bfLeaf, lowKeys, highKeys []keyPages) (*bfLeaf, *bfLeaf, error) {
	if len(lowKeys) == 0 || len(highKeys) == 0 {
		return nil, nil, fmt.Errorf("%w: cannot split leaf [%d,%d]: one half is empty",
			ErrOptions, leaf.minKey, leaf.maxKey)
	}
	leftMax := 0
	for _, kp := range lowKeys {
		if b := kp.bids[len(kp.bids)-1]; b > leftMax {
			leftMax = b
		}
	}
	rightMin := leaf.numBFs() - 1
	for _, kp := range highKeys {
		if b := kp.bids[0]; b < rightMin {
			rightMin = b
		}
	}
	g := device.PageID(leaf.granularity)
	leftLo := leaf.minPid
	leftHi := leaf.minPid + device.PageID(leftMax+1)*g - 1
	if leftHi > leaf.maxPid {
		leftHi = leaf.maxPid
	}
	rightLo := leaf.minPid + device.PageID(rightMin)*g
	rightHi := leaf.maxPid

	build := func(lo, hi device.PageID, keys []keyPages) (*bfLeaf, error) {
		pages := int(hi-lo) + 1
		g, s := leafShape(pages, t.opts.Granularity, maxFiltersPerLeaf(t.geo))
		o := t.opts
		o.Granularity = g
		posPerBF := t.geo.positionsFor(s, t.opts.Filter)
		o.Hashes = hashesFor(t.opts.Hashes, posPerBF, t.geo.KeysPerLeaf, s)
		nl := newBFLeaf(lo, hi, o, posPerBF, s, t.geo.PageSize)
		for _, kp := range keys {
			for _, oldBid := range kp.bids {
				plo, phi := leaf.pageRangeOf(oldBid)
				if plo < lo {
					plo = lo
				}
				if phi > hi {
					phi = hi
				}
				for p := plo; p <= phi; p++ {
					if err := nl.addKey(kp.key, p); err != nil {
						return nil, err
					}
				}
			}
			if kp.key < nl.minKey {
				nl.minKey = kp.key
			}
			if kp.key > nl.maxKey {
				nl.maxKey = kp.key
			}
			nl.numKeys++
		}
		return nl, nil
	}
	left, err := build(leftLo, leftHi, lowKeys)
	if err != nil {
		return nil, nil, err
	}
	right, err := build(rightLo, rightHi, highKeys)
	if err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

// cowPath applies a child split to the recorded descent path with
// branch.Insert, copy-on-write: every touched internal node is written
// to a freshly allocated page, so the whole path is rewritten, an
// overfull node splits into two fresh pages, and a separator past the
// top frame writes a new root. It returns the new root pid, the net
// number of internal pages added (splits and root growth), the height
// delta (0 or 1), the pages it allocated (all unreachable until the
// caller publishes — the caller must Free them if a later step fails
// before publication, or the page economy leaks), and the old path
// pages to retire — which the caller hands to retire() only after
// publishing the new snapshot, so an error mid-way never poisons the
// free list with reachable pages.
func (t *Tree) cowPath(path []branch.Frame, left device.PageID, right branch.Child) (newRoot device.PageID, added uint64, grew int, fresh, retired []device.PageID, err error) {
	buf := make([]byte, t.store.PageSize())
	write := func(old device.PageID, n *branch.Node) (device.PageID, error) {
		if old != device.InvalidPage {
			retired = append(retired, old)
		}
		pid := t.store.Allocate(1)
		fresh = append(fresh, pid)
		if err := branch.Encode(buf, n); err != nil {
			return 0, err
		}
		return pid, t.store.WritePage(pid, buf)
	}
	root, n, grew, err := branch.Insert(path, left, right, branch.Capacity(t.store.PageSize()), write)
	if err != nil {
		// Pages allocated here are unreachable until the caller
		// publishes, so they go straight back to the free list.
		t.store.Free(fresh...)
		return 0, 0, 0, nil, nil, err
	}
	return root, uint64(n), grew, fresh, retired, nil
}
