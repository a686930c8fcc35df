// Package cache models a set-associative, write-allocate data cache with
// true-LRU replacement — the L1 D-cache of the SimpleScalar stand-in.
// Geometry (total size, associativity, block size) is fully parameterised,
// matching the sweeps in the paper's Tables 8 and 9. A Bank feeds one
// access stream to several geometries at about the cost of one.
package cache

import "fmt"

// Policy selects the replacement policy. The paper's experiments use
// LRU throughout; FIFO exists for the replacement-policy ablation.
type Policy int

const (
	// LRU evicts the least-recently-used way (the paper's policy).
	LRU Policy = iota
	// FIFO evicts the oldest-filled way regardless of reuse.
	FIFO
)

// String names the policy.
func (p Policy) String() string {
	if p == FIFO {
		return "FIFO"
	}
	return "LRU"
}

// Config describes a cache geometry.
type Config struct {
	SizeBytes  int // total capacity
	Assoc      int // ways per set
	BlockBytes int // line size
	// Repl selects the replacement policy (zero value: LRU).
	Repl Policy
}

// String renders the geometry, e.g. "8KB/4-way/32B".
func (c Config) String() string {
	s := fmt.Sprintf("%dKB/%d-way/%dB", c.SizeBytes/1024, c.Assoc, c.BlockBytes)
	if c.Repl != LRU {
		s += "/" + c.Repl.String()
	}
	return s
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Assoc * c.BlockBytes) }

// Validate checks that the geometry is realisable: positive power-of-two
// block size and set count, and capacity divisible by assoc×block.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache: block size %d not a power of two", c.BlockBytes)
	}
	if c.SizeBytes%(c.Assoc*c.BlockBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible by assoc*block", c.SizeBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// The paper's two reference geometries.
var (
	// Training is the learning-phase cache: 256 sets, 4-way, 32-byte
	// blocks (Section 6).
	Training = Config{SizeBytes: 256 * 4 * 32, Assoc: 4, BlockBytes: 32}
	// Baseline is the 8 KB 4-way cache used for the summary tables.
	Baseline = Config{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 32}
)

// Cache is one simulated data cache. Each set is a recency-ordered run
// of assoc tag words inside one contiguous slice (set s occupies
// tags[s*assoc : (s+1)*assoc]): position 0 holds the most recently used
// line (the newest fill under FIFO) and the last position the next
// victim. A tag word is the line's tag plus one, with zero meaning
// invalid, so the hit scan is a single compare per way and invalid
// lines collect at the back of the set, where fills evict them first.
// The +1 cannot overflow: a tag occupies 32-tagShift bits. This is the
// hottest data structure in the whole experiment pipeline.
type Cache struct {
	cfg       Config
	tags      []uint32
	assoc     int
	lru       bool
	setShift  uint
	tagShift  uint
	setMask   uint32
	accesses  uint64
	misses    uint64
	loadMiss  uint64
	storeMiss uint64
}

// New builds a cache; the geometry must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:      cfg,
		tags:     make([]uint32, nsets*cfg.Assoc),
		assoc:    cfg.Assoc,
		lru:      cfg.Repl == LRU,
		setShift: uint(log2(cfg.BlockBytes)),
		setMask:  uint32(nsets - 1),
	}
	c.tagShift = c.setShift + uint(log2(nsets))
	return c, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Access simulates one data access and reports whether it hit.
// Write misses allocate (write-allocate policy).
func (c *Cache) Access(addr uint32, isStore bool) bool {
	c.accesses++
	tag1 := (addr >> c.tagShift) + 1
	base := int((addr>>c.setShift)&c.setMask) * c.assoc
	set := c.tags[base : base+c.assoc]
	// An MRU hit, the common case, needs no reordering.
	if set[0] == tag1 {
		return true
	}
	for i := 1; i < len(set); i++ {
		if set[i] == tag1 {
			if c.lru {
				// Move the line to the front. An explicit loop beats
				// copy's memmove call at these few words.
				for ; i > 0; i-- {
					set[i] = set[i-1]
				}
				set[0] = tag1
			}
			return true
		}
	}
	// Miss: the last line (LRU, or oldest fill under FIFO) drops out.
	c.countMiss(isStore)
	for i := len(set) - 1; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = tag1
	return false
}

func (c *Cache) countMiss(isStore bool) {
	c.misses++
	if isStore {
		c.storeMiss++
	} else {
		c.loadMiss++
	}
}

// Reset invalidates every line and clears counters.
func (c *Cache) Reset() {
	clear(c.tags)
	c.accesses, c.misses, c.loadMiss, c.storeMiss = 0, 0, 0, 0
}

// Stats summarises activity since the last Reset.
type Stats struct {
	Accesses    uint64
	Misses      uint64
	LoadMisses  uint64
	StoreMisses uint64
}

// Stats returns the activity counters.
func (c *Cache) Stats() Stats {
	return Stats{Accesses: c.accesses, Misses: c.misses, LoadMisses: c.loadMiss, StoreMisses: c.storeMiss}
}

// MissRate returns misses/accesses, or 0 for an idle cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
