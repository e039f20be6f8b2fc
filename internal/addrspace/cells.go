package addrspace

import "fmt"

// cellRuns is the cell-level data residue of a TrackCells space: which
// object's bytes every cell holds, ghost copies included, stored run-length
// encoded.
//
// Each maximal span of cells holding one object's data is a single run,
// kept in the same two-level blocked container as the placement index (a
// run is a placement whose id is the owner), so the residue's cost scales
// with the number of runs, not with how many bytes they span.
// Never-written cells have no run: they read as owner 0. Stamping an
// extent is an interval assignment that costs O(log n + runs touched),
// and the memory is O(runs), at most a few times the number of objects
// ever placed in the address range.
//
// Canonical form: runs are non-empty, sorted and disjoint, and two runs
// that touch have different owners, so a contiguous span of one owner is
// always exactly one run.
type cellRuns struct {
	idx pindex
	// length is the residue's addressable extent: it grows to
	// need+need/2 whenever a stamp reaches past it. Cells past it read
	// as owner 0, and no extent reaching past it holds anyone's data.
	length int64
	dels   []int64 // assign's removed-run starts (scratch)
}

// assign records that every cell of ext now holds id's data (id != 0).
func (c *cellRuns) assign(ext Extent, id ID) {
	a, b := ext.Start, ext.End()
	if b > c.length {
		c.length = b + b/2
	}
	x := &c.idx
	// First run the edit touches: the one straddling a, or one ending
	// exactly at a that the new run merges with, else the first at or
	// after a.
	first := x.lowerBound(a)
	if q, ok := x.prev(first); ok {
		if r := x.at(q); r.ext.End() > a || (r.ext.End() == a && r.id == id) {
			first = q
		}
	}
	lo, hi := a, b
	var pieces [3]placement
	n := 0
	var right placement
	haveRight := false
	dels := c.dels[:0]
	for p := first; x.valid(p); p = x.next(p) {
		r := x.at(p)
		if r.ext.Start > b || (r.ext.Start == b && r.id != id) {
			break
		}
		if r.ext.Start < a {
			if r.id == id {
				lo = r.ext.Start
			} else {
				pieces[n] = placement{id: r.id, ext: Extent{Start: r.ext.Start, Size: a - r.ext.Start}}
				n++
			}
		}
		if r.ext.End() > b {
			if r.id == id {
				hi = r.ext.End()
			} else {
				right, haveRight = placement{id: r.id, ext: Extent{Start: b, Size: r.ext.End() - b}}, true
			}
		}
		dels = append(dels, r.ext.Start)
	}
	c.dels = dels
	pieces[n] = placement{id: id, ext: Extent{Start: lo, Size: hi - lo}}
	n++
	if haveRight {
		pieces[n] = right
		n++
	}
	c.splice(first, len(dels), pieces[:n])
}

// splice replaces the k runs starting at first with ents, which cover the
// same addresses plus any gap the assignment filled. Edits inside one
// block (the common case) are a single in-place copy; edits spanning
// blocks, or that would fill a block, go through the index's batched
// range removal and insertion.
func (c *cellRuns) splice(first pos, k int, ents []placement) {
	x := &c.idx
	if x.valid(first) {
		blk := x.blocks[first.b]
		newLen := len(blk) - k + len(ents)
		if first.i+k <= len(blk) && newLen < cap(blk) {
			tail := blk[first.i+k:]
			blk = blk[:newLen]
			copy(blk[first.i+len(ents):], tail)
			copy(blk[first.i:], ents)
			x.blocks[first.b] = blk
			x.count += len(ents) - k
			x.gen++
			return
		}
	}
	x.removeStarts(c.dels[:k])
	if err := x.insertRuns(ents); err != nil {
		panic(fmt.Sprintf("addrspace: cell residue: %v", err))
	}
}

// owner returns which object's data cell addr holds, or 0.
func (c *cellRuns) owner(addr int64) ID {
	if addr < 0 || addr >= c.length {
		return 0
	}
	if r, ok := c.runAt(addr); ok {
		return r.id
	}
	return 0
}

// runAt returns the run containing addr, if any.
func (c *cellRuns) runAt(addr int64) (placement, bool) {
	x := &c.idx
	q, ok := x.prev(x.lowerBound(addr + 1))
	if !ok {
		return placement{}, false
	}
	r := x.at(q)
	return r, r.ext.End() > addr
}

// holds reports whether every cell of ext holds id's data: false for
// extents reaching past the residue's length, true for empty extents
// within it.
func (c *cellRuns) holds(id ID, ext Extent) bool {
	if ext.End() > c.length {
		return false
	}
	if ext.Size <= 0 {
		return true
	}
	if id != 0 {
		// Canonical form: a contiguous span of one owner is one run.
		r, ok := c.runAt(ext.Start)
		return ok && r.id == id && r.ext.End() >= ext.End()
	}
	// Owner 0: no run may intersect ext.
	if _, ok := c.runAt(ext.Start); ok {
		return false
	}
	p := c.idx.lowerBound(ext.Start)
	return !c.idx.valid(p) || c.idx.at(p).ext.Start >= ext.End()
}

// verify checks canonical form on top of the container invariants.
func (c *cellRuns) verify() error {
	if err := c.idx.verify(); err != nil {
		return err
	}
	var prev placement
	havePrev := false
	var verr error
	c.idx.forEach(func(id ID, ext Extent) {
		if verr != nil {
			return
		}
		switch {
		case id == 0 || ext.Size < 1 || ext.Start < 0:
			verr = fmt.Errorf("addrspace: cell run %v owned by %d is malformed", ext, id)
		case ext.End() > c.length:
			verr = fmt.Errorf("addrspace: cell run %v past the residue length %d", ext, c.length)
		case havePrev && prev.ext.End() > ext.Start:
			verr = fmt.Errorf("addrspace: cell runs %v and %v overlap", prev.ext, ext)
		case havePrev && prev.ext.End() == ext.Start && prev.id == id:
			verr = fmt.Errorf("addrspace: adjacent cell runs %v and %v share owner %d", prev.ext, ext, id)
		}
		prev, havePrev = placement{id: id, ext: ext}, true
	})
	return verr
}
