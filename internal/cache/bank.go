package cache

import "fmt"

// MaxBankMembers bounds a Bank: Access reports misses as one bit per
// member in a uint64.
const MaxBankMembers = 64

// Bank feeds one access stream to several caches, as the paper's
// tables need when they score every load under several geometries in
// one run.
//
// The bank filters out accesses that would hit without changing state
// in every member, whatever the members' block sizes, set counts,
// associativities and policies. Member i with 2^b_i-byte blocks and
// 2^s_i sets picks a set from address bits [b_i, b_i+s_i). The filter
// has one slot per value of the bits every member's set index shares,
// [max b_i, min(b_i+s_i)), or a single slot when that range is empty,
// and each slot holds the finest block number, addr >> min b_i, of the
// last access to land in it, plus one (zero: none yet). Any access that
// touches a member's set holding some block carries that set's index
// bits, and so the shared bits too: it lands in the block's slot. So if
// a slot still names the finest block of an access, nothing has touched
// any member's set holding that block since the last access to it: the
// block is resident in every member and, under LRU, still MRU. The
// repeat access hits everywhere and changes no state (a FIFO hit never
// does) except the access counters, which the bank keeps in one word
// until Flush.
type Bank struct {
	members  []*Cache
	filter   []uint64
	keyShift uint
	setShift uint
	mask     uint32
	filtered uint64
}

// NewBank groups members into a bank. The caches keep their state; the
// bank adds no history of its own, so its first access to any block
// runs every member.
func NewBank(members []*Cache) (*Bank, error) {
	if len(members) > MaxBankMembers {
		return nil, fmt.Errorf("cache: %d caches in one bank; at most %d", len(members), MaxBankMembers)
	}
	b := &Bank{members: members}
	if len(members) == 0 {
		return b, nil
	}
	lo, hi := uint(32), uint(32)
	for _, c := range members {
		lo = min(lo, c.setShift)
		b.setShift = max(b.setShift, c.setShift)
		hi = min(hi, c.tagShift)
	}
	b.keyShift = lo
	slots := 1
	if hi > b.setShift {
		slots <<= hi - b.setShift
	}
	b.filter = make([]uint64, slots)
	b.mask = uint32(slots - 1)
	return b, nil
}

// Access feeds one data access to every member and returns the set of
// members that missed, bit i for member i.
func (b *Bank) Access(addr uint32, isStore bool) uint64 {
	if b.filter != nil {
		key := uint64(addr>>b.keyShift) + 1
		f := &b.filter[(addr>>b.setShift)&b.mask]
		if *f == key {
			b.filtered++
			return 0
		}
		*f = key
	}
	var missed uint64
	for i, c := range b.members {
		if !c.Access(addr, isStore) {
			missed |= 1 << uint(i)
		}
	}
	return missed
}

// Flush credits the filtered hits to every member's access counter and
// forgets the filter, so the members' Stats are exact afterwards and
// the members may be driven directly (or Reset) before the bank's next
// Access.
func (b *Bank) Flush() {
	for _, c := range b.members {
		c.accesses += b.filtered
	}
	b.filtered = 0
	clear(b.filter)
}
