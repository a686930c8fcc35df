package cache

import "fmt"

// MaxBankMembers bounds a Bank: Access reports misses as one bit per
// member in a uint64.
const MaxBankMembers = 64

// Bank feeds one access stream to several caches, as the paper's
// tables need when they score every load under several geometries in
// one run.
//
// When every member is LRU and all share one block size, the bank
// filters out accesses that would be an MRU hit in every member. Under
// bit-selected set indexing the sets of a cache with more sets refine
// the sets of one with fewer: two blocks that share a set in the finer
// cache share one in the coarser. So if block B was the last access to
// land in set s of the member with the fewest sets, nothing has touched
// any member's set holding B since, and B is still MRU there, whatever
// the associativity. A repeat access to B hits everywhere and changes
// no state except the access counters, which the bank keeps in one
// word until Flush. The filter holds, per coarse set, the block number
// plus one of its last access (zero: none yet).
type Bank struct {
	members  []*Cache
	filter   []uint64
	shift    uint
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
	coarse := members[0].cfg
	for _, c := range members {
		if c.cfg.Repl != LRU || c.cfg.BlockBytes != coarse.BlockBytes {
			return b, nil
		}
		if c.cfg.Sets() < coarse.Sets() {
			coarse = c.cfg
		}
	}
	b.filter = make([]uint64, coarse.Sets())
	b.shift = uint(log2(coarse.BlockBytes))
	b.mask = uint32(coarse.Sets() - 1)
	return b, nil
}

// Access feeds one data access to every member and returns the set of
// members that missed, bit i for member i.
func (b *Bank) Access(addr uint32, isStore bool) uint64 {
	if b.filter != nil {
		blk := addr >> b.shift
		f := &b.filter[blk&b.mask]
		if *f == uint64(blk)+1 {
			b.filtered++
			return 0
		}
		*f = uint64(blk) + 1
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
