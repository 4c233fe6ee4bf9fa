package sim

import "math/bits"

// Hierarchical timing wheel.
//
// The pending set is split by distance from the clock:
//
//	cur   — active (at, seq) min-heap: the globally earliest entries.
//	        Same-slot schedules land here directly.
//	L0    — near wheel: 256 buckets of 2^16 ns (65.536 µs), spanning
//	        ~16.8 ms. Insert and cancel are O(1) list links.
//	L1    — overflow wheel: 64 buckets of 2^24 ns (16.8 ms), spanning
//	        ~1.07 s. A due L1 bucket cascades through place() back into
//	        the near wheel.
//	far   — min-heap for one-shots beyond the L1 horizon.
//
// Buckets are unordered; ordering is re-established when a bucket is
// activated (drained into cur, which is exact). A bucket's window start
// is a lower bound on everything in it, so nextDue only needs to drain
// structures whose bound does not exceed the cur top — once every bound
// lies strictly beyond it, the cur top is the global (at, seq) minimum
// and dispatch order matches a single global heap bit for bit.
const (
	l0Shift = 16
	l0Size  = 256
	l0Mask  = l0Size - 1
	l1Shift = 24
	l1Size  = 64
	l1Mask  = l1Size - 1

	maxTime = Time(1<<63 - 1)
)

// place files a pending entry into the structure matching its distance
// from now. The caller has set at/seq and counted it in pendingN.
func (e *Engine) place(s *scheduled) {
	slot0 := s.at >> l0Shift
	d0 := slot0 - e.now>>l0Shift
	if d0 <= 0 {
		s.loc = locCur
		e.cur.push(s)
		return
	}
	if d0 < l0Size {
		if win := slot0 << l0Shift; win < e.bucketMin {
			e.bucketMin = win
		}
		e.link(int(slot0&l0Mask), s)
		return
	}
	slot1 := s.at >> l1Shift
	if slot1-e.now>>l1Shift < l1Size {
		if win := slot1 << l1Shift; win < e.bucketMin {
			e.bucketMin = win
		}
		e.link(l0Size+int(slot1&l1Mask), s)
		return
	}
	s.loc = locFar
	e.far.push(s)
}

// link pushes s onto the bucket list at global slot gslot (L0 slots
// 0..l0Size-1, then L1) and marks the occupancy bit.
func (e *Engine) link(gslot int, s *scheduled) {
	s.loc = locWheel
	s.index = gslot
	var head **scheduled
	if gslot < l0Size {
		head = &e.l0[gslot]
		e.l0bits[gslot>>6] |= 1 << uint(gslot&63)
	} else {
		sl := gslot - l0Size
		head = &e.l1[sl]
		e.l1bits[sl>>6] |= 1 << uint(sl&63)
	}
	s.prev = nil
	s.next = *head
	if *head != nil {
		(*head).prev = s
	}
	*head = s
}

// unlink removes s from its bucket list, clearing the occupancy bit
// when the bucket empties.
func (e *Engine) unlink(s *scheduled) {
	gslot := s.index
	if s.next != nil {
		s.next.prev = s.prev
	}
	if s.prev != nil {
		s.prev.next = s.next
	} else if gslot < l0Size {
		e.l0[gslot] = s.next
		if s.next == nil {
			e.l0bits[gslot>>6] &^= 1 << uint(gslot&63)
		}
	} else {
		sl := gslot - l0Size
		e.l1[sl] = s.next
		if s.next == nil {
			e.l1bits[sl>>6] &^= 1 << uint(sl&63)
		}
	}
	s.next, s.prev = nil, nil
}

// scanFrom finds the first set occupancy bit at or after offset start,
// scanning circularly. It returns the slot index and its forward
// distance from start.
func scanFrom(words []uint64, size, start int) (slot, off int, ok bool) {
	wi := start >> 6
	w := words[wi] &^ (1<<uint(start&63) - 1)
	nw := size >> 6
	for i := 0; ; i++ {
		if w != 0 {
			slot = wi<<6 + bits.TrailingZeros64(w)
			off = slot - start
			if off < 0 {
				off += size
			}
			return slot, off, true
		}
		if i >= nw {
			return 0, 0, false
		}
		wi++
		if wi == nw {
			wi = 0
		}
		w = words[wi]
	}
}

// drainL0 activates a near-wheel bucket: every entry moves to the
// active heap.
func (e *Engine) drainL0(slot int) {
	s := e.l0[slot]
	e.l0[slot] = nil
	e.l0bits[slot>>6] &^= 1 << uint(slot&63)
	for s != nil {
		next := s.next
		s.next, s.prev = nil, nil
		s.loc = locCur
		e.cur.push(s)
		s = next
	}
}

// drainL1 activates an overflow bucket. A due bucket (off == 0 — the
// clock has entered its window) cascades through place(), spreading its
// entries across the near wheel; a bucket activated early because the
// active heap already holds later entries drains straight into the heap.
func (e *Engine) drainL1(slot, off int) {
	s := e.l1[slot]
	e.l1[slot] = nil
	e.l1bits[slot>>6] &^= 1 << uint(slot&63)
	for s != nil {
		next := s.next
		s.next, s.prev = nil, nil
		if off == 0 {
			e.place(s)
		} else {
			s.loc = locCur
			e.cur.push(s)
		}
		s = next
	}
}

// nextDue activates structures until the active heap provably holds the
// globally earliest pending entry, then returns its due time. bucketMin
// is a monotone lower bound on every bucket window, so the common
// steady-state call — heap top imminent, wheels holding only later
// events — costs two compares and no bitmap scan.
func (e *Engine) nextDue() (Time, bool) {
	for {
		curAt := maxTime
		if len(e.cur) > 0 {
			curAt = e.cur[0].at
		}
		if len(e.far) > 0 && e.far[0].at <= curAt {
			s := e.far.pop()
			s.loc = locCur
			e.cur.push(s)
			continue
		}
		if e.bucketMin <= curAt {
			if e.scanWheels(curAt) {
				continue
			}
		}
		if curAt == maxTime {
			return 0, false
		}
		return curAt, true
	}
}

// scanWheels drains every bucket whose window starts at or before
// limit, reporting whether anything moved; otherwise it tightens
// bucketMin to the earliest remaining window.
func (e *Engine) scanWheels(limit Time) bool {
	drained := false
	min := maxTime
	base0 := e.now >> l0Shift
	if slot, off, ok := scanFrom(e.l0bits[:], l0Size, int(base0)&l0Mask); ok {
		if win := (base0 + Time(off)) << l0Shift; win <= limit {
			e.drainL0(slot)
			drained = true
		} else {
			min = win
		}
	}
	base1 := e.now >> l1Shift
	if slot, off, ok := scanFrom(e.l1bits[:], l1Size, int(base1)&l1Mask); ok {
		if win := (base1 + Time(off)) << l1Shift; win <= limit {
			e.drainL1(slot, off)
			drained = true
		} else if win < min {
			min = win
		}
	}
	if drained {
		// Draining only removes entries (an L1 cascade re-files through
		// place, which lowers bucketMin itself), so the existing lower
		// bound stays valid; the next clean pass tightens it.
		return true
	}
	e.bucketMin = min
	return false
}
