package ftl

// entryIndex maps an LSN to its resident write-cache entry. It replaces a
// Go map on the write cache's hottest path — every cached sector of every
// host write does a lookup, an insert, a lookup when it is batched into a
// flush and a delete when the flush commits.
//
// It is an open-addressed table: a power-of-two slot array, Fibonacci
// (multiplicative) hashing and linear probing. A slot holds the entry
// itself, nil meaning empty; the key is the entry's lsn, which never changes
// while the entry is indexed (only dead entries are recycled, and an entry
// leaves the index before it dies). Deletion shifts the rest of the probe
// chain back instead of leaving tombstones, so lookups never scan dead slots
// and the table never needs rehashing to purge them. The table doubles when
// an insert would take it above half load; at a steady cache occupancy it
// allocates nothing.
//
// Nothing iterates the index, so its slot order can never leak into
// simulated results.
type entryIndex struct {
	slots []*cacheEntry
	shift uint // 64 - log2(len(slots)): the hash keeps the top bits
	n     int
}

// fibMul is 2^64 divided by the golden ratio, rounded to odd: multiplying
// by it scatters consecutive LSNs across the table's top-bit range.
const fibMul = 0x9E3779B97F4A7C15

// newEntryIndex returns an index whose table holds capacity entries at no
// more than half load.
func newEntryIndex(capacity int) entryIndex {
	size, shift := 8, uint(61)
	for size < 2*capacity {
		size <<= 1
		shift--
	}
	return entryIndex{slots: make([]*cacheEntry, size), shift: shift}
}

// home returns lsn's preferred slot.
func (x *entryIndex) home(lsn int64) int {
	return int(uint64(lsn) * fibMul >> x.shift)
}

// get returns the entry indexed under lsn, or nil.
func (x *entryIndex) get(lsn int64) *cacheEntry {
	mask := len(x.slots) - 1
	for i := x.home(lsn); ; i = (i + 1) & mask {
		e := x.slots[i]
		if e == nil || e.lsn == lsn {
			return e
		}
	}
}

// put indexes e under e.lsn, which must not already be present.
func (x *entryIndex) put(e *cacheEntry) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	x.insert(e)
	x.n++
}

// insert places e in the first empty slot of its probe chain.
func (x *entryIndex) insert(e *cacheEntry) {
	mask := len(x.slots) - 1
	i := x.home(e.lsn)
	for x.slots[i] != nil {
		i = (i + 1) & mask
	}
	x.slots[i] = e
}

// grow doubles the table and reinserts every entry.
func (x *entryIndex) grow() {
	old := x.slots
	x.slots = make([]*cacheEntry, 2*len(old))
	x.shift--
	for _, e := range old {
		if e != nil {
			x.insert(e)
		}
	}
}

// del removes lsn's entry, if any, and returns it. Backward-shift deletion:
// each later entry of the probe chain whose home does not lie cyclically
// after the hole moves back into it, so every remaining entry stays
// reachable from its home without tombstones.
func (x *entryIndex) del(lsn int64) *cacheEntry {
	mask := len(x.slots) - 1
	i := x.home(lsn)
	for x.slots[i] != nil && x.slots[i].lsn != lsn {
		i = (i + 1) & mask
	}
	found := x.slots[i]
	if found == nil {
		return nil
	}
	for j := (i + 1) & mask; x.slots[j] != nil; j = (j + 1) & mask {
		// The entry at j may fill hole i iff i is no further from its home
		// than j is: (j-home) mod size >= (j-i) mod size.
		if (j-x.home(x.slots[j].lsn))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = nil
	x.n--
	return found
}
