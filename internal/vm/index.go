package vm

import (
	"bonsai/internal/core"
	"bonsai/internal/locks"
	"bonsai/internal/rbtree"
	"bonsai/internal/rcu"
	"bonsai/internal/vma"
)

// regionIndex is the region tree of Figure 1, keyed by VMA start
// address. In the lock-based designs mutations are serialized by
// mmap_sem (held in write mode for every mapping operation); in the
// range-locked RCU designs mapping operations on disjoint ranges run
// concurrently, so each index mutation is additionally serialized by a
// per-tree writer lock (treeSem for Hybrid, the BONSAI tree's internal
// writer mutex for PureRCU). What varies is how the *fault path* reads
// the tree:
//
//   - RWLock/FaultLock: under a read-mode semaphore that excludes
//     writers, so a plain red-black tree needs no further locking.
//   - Hybrid: under the dedicated treeSem read lock (§5.2).
//   - PureRCU: with no lock at all, which requires the BONSAI tree.
type regionIndex interface {
	// insert adds a VMA (writer side).
	insert(v *vma.VMA)
	// remove deletes the VMA keyed by start (writer side).
	remove(start uint64)
	// floorRead returns the VMA with the greatest start <= addr, using
	// the design's fault-path synchronization.
	floorRead(addr uint64) *vma.VMA
	// floorLocked is floorRead for mapping-side callers: it is safe
	// against concurrent index writers (which hold the per-tree writer
	// lock), but unlike floorRead it may also be called while the
	// caller itself holds mapping-side exclusion.
	floorLocked(addr uint64) *vma.VMA
	// ceilingLocked returns the VMA with the smallest start >= addr
	// (writer side; used for gap search and stack growth).
	ceilingLocked(addr uint64) *vma.VMA
	// ascendRangeLocked visits VMAs with start in [lo, hi) in order
	// (writer side).
	ascendRangeLocked(lo, hi uint64, fn func(*vma.VMA) bool)
	// count returns the number of regions (writer side).
	count() int
	// countRead is count for callers holding no mapping-side
	// exclusion, using the design's fault-path synchronization.
	countRead() int
}

func newRegionIndex(d Design, treeSem *locks.RWSem, dom *rcu.Domain, rangeLocked bool) regionIndex {
	switch d {
	case PureRCU:
		return &bonsaiIndex{t: core.NewTree[*vma.VMA](core.Options{
			UpdateInPlace: true,
			Domain:        dom,
		})}
	case Hybrid:
		return &rbIndex{t: rbtree.New[*vma.VMA](), sem: treeSem, lockedReads: rangeLocked}
	default:
		return &rbIndex{t: rbtree.New[*vma.VMA]()}
	}
}

// rbIndex wraps the mutable red-black tree. When sem is non-nil
// (Hybrid), mutations take it in write mode and fault-path reads in
// read mode. Mapping-side reads take it in read mode only when
// lockedReads is set (range locking: a disjoint operation may be
// mutating concurrently); with the global mmap_sem they stay lock-free
// as in the paper, since mmap_sem excludes every mutator. When sem is
// nil (RWLock/FaultLock), mmap_sem serializes everything and the tree
// needs no locking of its own.
type rbIndex struct {
	t           *rbtree.Tree[*vma.VMA]
	sem         *locks.RWSem // nil for RWLock/FaultLock
	lockedReads bool         // mapping-side reads must take sem (range locking)
}

func (i *rbIndex) insert(v *vma.VMA) {
	if i.sem != nil {
		i.sem.Lock()
		defer i.sem.Unlock()
	}
	i.t.Insert(v.Start(), v)
}

func (i *rbIndex) remove(start uint64) {
	if i.sem != nil {
		i.sem.Lock()
		defer i.sem.Unlock()
	}
	i.t.Delete(start)
}

func (i *rbIndex) floorRead(addr uint64) *vma.VMA {
	if i.sem != nil {
		i.sem.RLock()
		defer i.sem.RUnlock()
	}
	_, v, ok := i.t.Floor(addr)
	if !ok {
		return nil
	}
	return v
}

func (i *rbIndex) floorLocked(addr uint64) *vma.VMA {
	// With the global semaphore, mmap_sem (write or read) excludes tree
	// writers and no tree lock is needed; under range locking a
	// disjoint mapping operation may be mutating concurrently, so
	// mapping-side reads take the tree lock in read mode like faults do.
	if i.lockedReads {
		i.sem.RLock()
		defer i.sem.RUnlock()
	}
	_, v, ok := i.t.Floor(addr)
	if !ok {
		return nil
	}
	return v
}

func (i *rbIndex) ceilingLocked(addr uint64) *vma.VMA {
	if i.lockedReads {
		i.sem.RLock()
		defer i.sem.RUnlock()
	}
	_, v, ok := i.t.Ceiling(addr)
	if !ok {
		return nil
	}
	return v
}

func (i *rbIndex) ascendRangeLocked(lo, hi uint64, fn func(*vma.VMA) bool) {
	if i.lockedReads {
		i.sem.RLock()
		defer i.sem.RUnlock()
	}
	i.t.AscendRange(lo, hi, func(_ uint64, v *vma.VMA) bool { return fn(v) })
}

func (i *rbIndex) count() int { return i.t.Len() }

func (i *rbIndex) countRead() int {
	if i.lockedReads {
		i.sem.RLock()
		defer i.sem.RUnlock()
	}
	return i.t.Len()
}

// bonsaiIndex wraps the BONSAI tree: fault-path and mapping-side reads
// are lock-free; mutations go through the tree's internal writer
// mutex, which serializes structural changes from concurrent disjoint
// mapping operations while readers follow the RCU-published root.
type bonsaiIndex struct {
	t *core.Tree[*vma.VMA]
}

func (i *bonsaiIndex) insert(v *vma.VMA) { i.t.Insert(v.Start(), v) }

func (i *bonsaiIndex) remove(start uint64) { i.t.Delete(start) }

func (i *bonsaiIndex) floorRead(addr uint64) *vma.VMA {
	_, v, ok := i.t.Floor(addr)
	if !ok {
		return nil
	}
	return v
}

func (i *bonsaiIndex) floorLocked(addr uint64) *vma.VMA { return i.floorRead(addr) }

func (i *bonsaiIndex) ceilingLocked(addr uint64) *vma.VMA {
	_, v, ok := i.t.Ceiling(addr)
	if !ok {
		return nil
	}
	return v
}

func (i *bonsaiIndex) ascendRangeLocked(lo, hi uint64, fn func(*vma.VMA) bool) {
	i.t.AscendRange(lo, hi, func(_ uint64, v *vma.VMA) bool { return fn(v) })
}

func (i *bonsaiIndex) count() int { return i.t.Len() }

// countRead is safe with no lock: Len reads the RCU-published root's
// writer-maintained size field.
func (i *bonsaiIndex) countRead() int { return i.t.Len() }
