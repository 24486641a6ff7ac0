package ftl

import (
	"math/rand"
	"testing"
)

// checkIndex verifies x against the reference map: the same key set, every
// key reachable from its home slot, and the load at most one half.
func checkIndex(t *testing.T, step int, x *entryIndex, ref map[int64]*cacheEntry) {
	t.Helper()
	if x.n != len(ref) {
		t.Fatalf("step %d: index holds %d entries, reference %d", step, x.n, len(ref))
	}
	occupied := 0
	for _, e := range x.slots {
		if e != nil {
			occupied++
			if ref[e.lsn] != e {
				t.Fatalf("step %d: slot holds lsn %d, absent from the reference", step, e.lsn)
			}
		}
	}
	if occupied != x.n {
		t.Fatalf("step %d: %d occupied slots, count %d", step, occupied, x.n)
	}
	if 2*x.n > len(x.slots) {
		t.Fatalf("step %d: %d entries in %d slots, above half load", step, x.n, len(x.slots))
	}
	for lsn, e := range ref {
		if got := x.get(lsn); got != e {
			t.Fatalf("step %d: get(%d) = %p, want %p", step, lsn, got, e)
		}
	}
}

// collidingKeys returns n distinct non-negative LSNs whose home slot is
// want in a table of the given shift.
func collidingKeys(shift uint, want, n int) []int64 {
	x := entryIndex{shift: shift}
	var keys []int64
	for lsn := int64(0); len(keys) < n; lsn++ {
		if x.home(lsn) == want {
			keys = append(keys, lsn)
		}
	}
	return keys
}

// TestEntryIndexMatchesMap runs put/get/del sequences against a Go map.
// The directed cases build the chains the backward-shift deletion must get
// right: chains that wrap past the table's last slot, deletes from the
// middle of a chain of LSNs that share a home slot, and growth; the random
// case mixes everything over a small key space so chains form and dissolve.
func TestEntryIndexMatchesMap(t *testing.T) {
	t.Run("wrap", func(t *testing.T) {
		x := newEntryIndex(4) // 8 slots, holds 4
		if len(x.slots) != 8 {
			t.Fatalf("newEntryIndex(4) has %d slots, want 8", len(x.slots))
		}
		ref := map[int64]*cacheEntry{}
		// Three keys homed at the last slot and one homed at slot 0: the
		// chain runs 7, 0, 1, 2, so the slot-0 key is displaced to 2.
		keys := append(collidingKeys(x.shift, 7, 3), collidingKeys(x.shift, 0, 1)...)
		for i, k := range keys {
			e := &cacheEntry{lsn: k}
			x.put(e)
			ref[k] = e
			checkIndex(t, i, &x, ref)
		}
		if x.slots[7].lsn != keys[0] || x.slots[2].lsn != keys[3] {
			t.Fatalf("chain did not wrap: slot 7 = %d, slot 2 = %d", x.slots[7].lsn, x.slots[2].lsn)
		}
		// Deleting the chain head at 7 shifts the wrapped entries back
		// across the end of the table; the slot-0 key returns home.
		for i, k := range keys[:3] {
			if x.del(k) != ref[k] {
				t.Fatalf("del(%d) returned the wrong entry", k)
			}
			delete(ref, k)
			checkIndex(t, 10+i, &x, ref)
		}
		if x.slots[0] == nil || x.slots[0].lsn != keys[3] {
			t.Fatal("the slot-0 key did not shift back to its home")
		}
	})
	t.Run("middle", func(t *testing.T) {
		x := newEntryIndex(8) // 16 slots
		ref := map[int64]*cacheEntry{}
		keys := collidingKeys(x.shift, 5, 6)
		for _, k := range keys {
			e := &cacheEntry{lsn: k}
			x.put(e)
			ref[k] = e
		}
		checkIndex(t, 0, &x, ref)
		for i, k := range []int64{keys[2], keys[4], keys[0], keys[5]} {
			x.del(k)
			delete(ref, k)
			checkIndex(t, 1+i, &x, ref)
		}
		if x.del(keys[2]) != nil {
			t.Fatal("deleting an absent key returned an entry")
		}
	})
	t.Run("grow", func(t *testing.T) {
		x := newEntryIndex(1)
		ref := map[int64]*cacheEntry{}
		for k := int64(0); k < 1000; k++ {
			lsn := k * 7919
			e := &cacheEntry{lsn: lsn}
			x.put(e)
			ref[lsn] = e
		}
		checkIndex(t, 0, &x, ref)
		if len(x.slots) != 2048 {
			t.Fatalf("1000 entries in %d slots, want 2048", len(x.slots))
		}
	})
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			x := newEntryIndex(4)
			ref := map[int64]*cacheEntry{}
			for step := 0; step < 3000; step++ {
				lsn := rng.Int63n(64)
				switch rng.Intn(3) {
				case 0:
					if ref[lsn] == nil {
						e := &cacheEntry{lsn: lsn}
						x.put(e)
						ref[lsn] = e
					}
				case 1:
					if got := x.del(lsn); got != ref[lsn] {
						t.Fatalf("seed %d step %d: del(%d) = %p, want %p", seed, step, lsn, got, ref[lsn])
					}
					delete(ref, lsn)
				default:
					if got := x.get(lsn); got != ref[lsn] {
						t.Fatalf("seed %d step %d: get(%d) = %p, want %p", seed, step, lsn, got, ref[lsn])
					}
				}
				checkIndex(t, step, &x, ref)
			}
		}
	})
}
