package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// mustNew builds a cache from a geometry the test knows is valid.
func mustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		Training, Baseline,
		{SizeBytes: 16 * 1024, Assoc: 2, BlockBytes: 32},
		{SizeBytes: 64 * 1024, Assoc: 8, BlockBytes: 64},
		{SizeBytes: 1024, Assoc: 1, BlockBytes: 16},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v", c, err)
		}
	}
	bad := []Config{
		{},
		{SizeBytes: 8192, Assoc: 4, BlockBytes: 24},
		{SizeBytes: 8192, Assoc: 3, BlockBytes: 32}, // 85.33 sets
		{SizeBytes: -1, Assoc: 1, BlockBytes: 32},
		{SizeBytes: 8192 + 32, Assoc: 1, BlockBytes: 32},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%v) succeeded; want error", c)
		}
	}
}

// TestNewRejectsInvalidGeometry is the regression for the removed
// MustNew: an invalid geometry must come back as an error from New,
// never as a panic anywhere in the pipeline.
func TestNewRejectsInvalidGeometry(t *testing.T) {
	bad := []Config{
		{},
		{SizeBytes: -1, Assoc: 1, BlockBytes: 32},
		{SizeBytes: 8192, Assoc: 4, BlockBytes: 24},
		{SizeBytes: 8192, Assoc: 3, BlockBytes: 32},
		{SizeBytes: 8192 + 32, Assoc: 1, BlockBytes: 32},
	}
	for _, cfg := range bad {
		c, err := New(cfg)
		if err == nil || c != nil {
			t.Errorf("New(%v) = %v, %v; want nil, error", cfg, c, err)
		}
	}
	if _, err := New(Baseline); err != nil {
		t.Errorf("New(Baseline) = %v", err)
	}
}

func TestConfigDerived(t *testing.T) {
	if Training.Sets() != 256 {
		t.Errorf("Training sets = %d", Training.Sets())
	}
	if Baseline.Sets() != 64 {
		t.Errorf("Baseline sets = %d", Baseline.Sets())
	}
	if s := Baseline.String(); s != "8KB/4-way/32B" {
		t.Errorf("String = %q", s)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(Baseline)
	if c.Access(0x1000, false) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000, false) {
		t.Error("second access missed")
	}
	if !c.Access(0x101c, false) {
		t.Error("same-block access missed")
	}
	if c.Access(0x1020, false) {
		t.Error("next block hit on cold access")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Misses != 2 || st.LoadMisses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped 2-set cache, 16B blocks: addresses 0 and 32 collide.
	c := mustNew(Config{SizeBytes: 32, Assoc: 1, BlockBytes: 16})
	c.Access(0, false)
	c.Access(32, false) // evicts 0
	if c.Access(0, false) {
		t.Error("evicted line still present")
	}
}

func TestLRUOrdering(t *testing.T) {
	// One set, 2-way: A, B, touch A, insert C -> B evicted, A retained.
	c := mustNew(Config{SizeBytes: 32, Assoc: 2, BlockBytes: 16})
	a, b, d := uint32(0), uint32(32), uint32(64)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // refresh A
	c.Access(d, false) // must evict B
	if !c.Access(a, false) {
		t.Error("A evicted despite being MRU")
	}
	if c.Access(b, false) {
		t.Error("B retained despite being LRU")
	}
}

func TestStoreMissesCountedSeparately(t *testing.T) {
	c := mustNew(Baseline)
	c.Access(0x2000, true)
	c.Access(0x3000, false)
	st := c.Stats()
	if st.StoreMisses != 1 || st.LoadMisses != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Write-allocate: subsequent load of the stored block hits.
	if !c.Access(0x2000, false) {
		t.Error("write-allocate failed")
	}
}

func TestReset(t *testing.T) {
	c := mustNew(Baseline)
	c.Access(0x4000, false)
	c.Reset()
	if st := c.Stats(); st.Accesses != 0 || st.Misses != 0 {
		t.Errorf("stats after reset = %+v", st)
	}
	if c.Access(0x4000, false) {
		t.Error("line survived reset")
	}
}

func TestMissRate(t *testing.T) {
	if (Stats{}).MissRate() != 0 {
		t.Error("empty MissRate != 0")
	}
	s := Stats{Accesses: 8, Misses: 2}
	if s.MissRate() != 0.25 {
		t.Errorf("MissRate = %v", s.MissRate())
	}
}

// Property: a working set no larger than one set's capacity never misses
// after the first touch of each block (LRU never evicts a live block).
func TestQuickWorkingSetFits(t *testing.T) {
	cfg := Config{SizeBytes: 1024, Assoc: 4, BlockBytes: 32}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := mustNew(cfg)
		// 4 blocks mapping to the same set (set 0 of 8).
		blocks := make([]uint32, 4)
		for i := range blocks {
			blocks[i] = uint32(i) * uint32(cfg.BlockBytes) * uint32(cfg.Sets())
		}
		seen := map[uint32]bool{}
		for i := 0; i < 200; i++ {
			b := blocks[rng.Intn(len(blocks))]
			hit := c.Access(b, false)
			if seen[b] && !hit {
				return false
			}
			seen[b] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: miss count is monotonically non-increasing in associativity
// for a fixed-size cache under any access sequence? Not in general (Belady
// anomalies exist for some policies), but LRU is a stack algorithm in
// *capacity*: for fixed block count per set, doubling ways while halving
// sets may reshuffle. We instead check the stack property that a larger
// fully-associative LRU cache never misses more than a smaller one.
func TestQuickLRUStackProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		small := mustNew(Config{SizeBytes: 256, Assoc: 8, BlockBytes: 32})   // 1 set
		large := mustNew(Config{SizeBytes: 1024, Assoc: 32, BlockBytes: 32}) // 1 set
		for i := 0; i < 500; i++ {
			addr := uint32(rng.Intn(64)) * 32
			small.Access(addr, false)
			large.Access(addr, false)
		}
		return large.Stats().Misses <= small.Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFIFOReplacement(t *testing.T) {
	// One set, 2-way. FIFO: A, B, touch A, insert C evicts A (oldest
	// fill); under LRU the same sequence evicts B.
	cfg := Config{SizeBytes: 32, Assoc: 2, BlockBytes: 16, Repl: FIFO}
	c := mustNew(cfg)
	a, b, d := uint32(0), uint32(32), uint32(64)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // reuse does not refresh under FIFO
	c.Access(d, false) // evicts A
	// Check the survivor first: probing the victim would refill it.
	if !c.Access(b, false) {
		t.Error("FIFO evicted the younger line")
	}
	if c.Access(a, false) {
		t.Error("FIFO retained the oldest line")
	}
	if cfg.String() != "0KB/2-way/16B/FIFO" {
		t.Errorf("String = %q", cfg.String())
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" {
		t.Error("policy names wrong")
	}
}

// refCache is an obviously-correct model: one map per set from tag to
// last-touch stamp (fill stamp under FIFO), evicting the smallest stamp
// when full. Stamps are unique (the clock is strictly increasing), so
// the victim is unambiguous and must match the recency-ordered
// implementation's choice exactly.
type refCache struct {
	cfg   Config
	sets  []map[uint32]uint64
	clock uint64
}

func newRef(cfg Config) *refCache {
	r := &refCache{cfg: cfg, sets: make([]map[uint32]uint64, cfg.Sets())}
	for i := range r.sets {
		r.sets[i] = map[uint32]uint64{}
	}
	return r
}

func (r *refCache) access(addr uint32) bool {
	r.clock++
	block := addr / uint32(r.cfg.BlockBytes)
	set := r.sets[block%uint32(r.cfg.Sets())]
	tag := block / uint32(r.cfg.Sets())
	if _, ok := set[tag]; ok {
		if r.cfg.Repl == LRU {
			set[tag] = r.clock
		}
		return true
	}
	if len(set) == r.cfg.Assoc {
		var victim uint32
		first := true
		for tg, st := range set {
			if first || st < set[victim] {
				victim, first = tg, false
			}
		}
		delete(set, victim)
	}
	set[tag] = r.clock
	return false
}

// TestAgainstReferenceModel drives the production cache and the
// reference model with the same pseudo-random access stream across
// geometries (including direct-mapped) and both policies, demanding an
// identical hit/miss sequence.
func TestAgainstReferenceModel(t *testing.T) {
	geoms := []Config{
		{SizeBytes: 1024, Assoc: 1, BlockBytes: 32},
		{SizeBytes: 1024, Assoc: 2, BlockBytes: 32},
		{SizeBytes: 1024, Assoc: 4, BlockBytes: 16},
		{SizeBytes: 2048, Assoc: 8, BlockBytes: 64},
		{SizeBytes: 1024, Assoc: 4, BlockBytes: 16, Repl: FIFO},
		{SizeBytes: 1024, Assoc: 1, BlockBytes: 32, Repl: FIFO},
	}
	for _, cfg := range geoms {
		rng := rand.New(rand.NewSource(7))
		c := mustNew(cfg)
		r := newRef(cfg)
		var misses uint64
		for i := 0; i < 20000; i++ {
			// A mix of hot working set and cold sweeps.
			var addr uint32
			switch rng.Intn(3) {
			case 0:
				addr = uint32(rng.Intn(16)) * 32
			case 1:
				addr = uint32(rng.Intn(4096))
			default:
				addr = uint32(i * 8)
			}
			store := rng.Intn(4) == 0
			got := c.Access(addr, store)
			want := r.access(addr)
			if got != want {
				t.Fatalf("%v: access %d addr %#x: got hit=%v, reference %v",
					cfg, i, addr, got, want)
			}
			if !want {
				misses++
			}
		}
		st := c.Stats()
		if st.Misses != misses || st.Accesses != 20000 {
			t.Errorf("%v: stats %+v, want misses=%d accesses=20000", cfg, st, misses)
		}
		if st.LoadMisses+st.StoreMisses != st.Misses {
			t.Errorf("%v: load+store misses != misses: %+v", cfg, st)
		}
	}
}

// TestDirectMappedFastPath pins the assoc=1 semantics: conflict
// eviction and write-allocate.
func TestDirectMappedFastPath(t *testing.T) {
	c := mustNew(Config{SizeBytes: 1024, Assoc: 1, BlockBytes: 32})
	sets := uint32(32)
	a, b := uint32(0), 32*sets // same set, different tags
	if c.Access(a, false) {
		t.Error("cold hit")
	}
	if !c.Access(a, false) {
		t.Error("warm miss")
	}
	if c.Access(b, true) {
		t.Error("conflicting tag hit")
	}
	if c.Access(a, false) {
		t.Error("evicted line still present")
	}
	if !c.Access(a, false) {
		t.Error("refilled line missing")
	}
	st := c.Stats()
	if st.Accesses != 5 || st.Misses != 3 || st.StoreMisses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// The bank geometries of the paper's tables, the six geometries every
// sweep attaches (tables.StdGeoms, which this package cannot import) and
// Table S3's block-size sweep, plus banks that give the filter its other
// shapes: an LRU/FIFO mix, members whose set-index bits do not overlap
// (a one-slot filter) and an all-FIFO bank with mixed block sizes.
var (
	stdGeoms = []Config{
		{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 32},
		{SizeBytes: 16 * 1024, Assoc: 4, BlockBytes: 32},
		{SizeBytes: 32 * 1024, Assoc: 4, BlockBytes: 32},
		{SizeBytes: 64 * 1024, Assoc: 4, BlockBytes: 32},
		{SizeBytes: 8 * 1024, Assoc: 2, BlockBytes: 32},
		{SizeBytes: 8 * 1024, Assoc: 8, BlockBytes: 32},
	}
	blockGeoms = []Config{
		{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 16},
		{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 32},
		{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 64},
	}
	fifoGeoms = []Config{
		{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 32},
		{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 32, Repl: FIFO},
		{SizeBytes: 1024, Assoc: 1, BlockBytes: 32},
	}
	disjointGeoms = []Config{
		{SizeBytes: 128, Assoc: 1, BlockBytes: 16},
		{SizeBytes: 8 * 1024, Assoc: 1, BlockBytes: 128},
	}
	allFIFOGeoms = []Config{
		{SizeBytes: 8 * 1024, Assoc: 4, BlockBytes: 32, Repl: FIFO},
		{SizeBytes: 2 * 1024, Assoc: 2, BlockBytes: 16, Repl: FIFO},
		{SizeBytes: 1024, Assoc: 1, BlockBytes: 64, Repl: FIFO},
	}
	bankGeoms = [][]Config{stdGeoms, blockGeoms, fifoGeoms, disjointGeoms, allFIFOGeoms}
)

// bankAccess is one access of a bank's input stream.
type bankAccess struct {
	addr  uint32
	store bool
}

// checkBank drives a bank of cfgs and one refCache per member with the
// same stream, one access at a time. The bank's miss mask must equal
// the mask the reference models produce on every access, and after
// each Flush (every flushEvery accesses, and at the end) every member's
// Stats must equal the counts tallied from the reference outcomes.
func checkBank(t testing.TB, cfgs []Config, stream []bankAccess, flushEvery int) {
	t.Helper()
	members := make([]*Cache, len(cfgs))
	refs := make([]*refCache, len(cfgs))
	want := make([]Stats, len(cfgs))
	for i, cfg := range cfgs {
		members[i], refs[i] = mustNew(cfg), newRef(cfg)
	}
	bank, err := NewBank(members)
	if err != nil {
		t.Fatal(err)
	}
	checkStats := func(n int) {
		bank.Flush()
		for i, c := range members {
			if got := c.Stats(); got != want[i] {
				t.Fatalf("%v after %d accesses: stats %+v, reference %+v", cfgs[i], n, got, want[i])
			}
		}
	}
	for n, a := range stream {
		var wantMask uint64
		for i, r := range refs {
			want[i].Accesses++
			if !r.access(a.addr) {
				wantMask |= 1 << uint(i)
				want[i].Misses++
				if a.store {
					want[i].StoreMisses++
				} else {
					want[i].LoadMisses++
				}
			}
		}
		if got := bank.Access(a.addr, a.store); got != wantMask {
			t.Fatalf("%v: access %d addr %#x: miss mask %b, reference %b", cfgs, n, a.addr, got, wantMask)
		}
		if flushEvery > 0 && (n+1)%flushEvery == 0 {
			checkStats(n + 1)
		}
	}
	checkStats(len(stream))
}

// TestBankAgainstReferenceModel extends the reference-model oracle of
// TestAgainstReferenceModel to every bank of bankGeoms, each filtered:
// the six standard geometries, Table S3's mixed block sizes, an LRU/FIFO
// mix, a one-slot filter and an all-FIFO bank. The stream mixes
// same-block runs, which the filter absorbs, with a hot working set,
// random accesses over 128 KB and a sequential sweep that evicts from
// every geometry.
func TestBankAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	stream := make([]bankAccess, 60000)
	var addr uint32
	for i := range stream {
		switch rng.Intn(4) {
		case 0: // same block again
			addr = addr&^31 | uint32(rng.Intn(32))
		case 1:
			addr = uint32(rng.Intn(64)) * 32
		case 2:
			addr = uint32(rng.Intn(128 * 1024))
		default:
			addr = uint32(i * 12)
		}
		stream[i] = bankAccess{addr, rng.Intn(4) == 0}
	}
	for _, cfgs := range bankGeoms {
		checkBank(t, cfgs, stream, 7919)
	}
	// A single member takes the filter too.
	checkBank(t, stdGeoms[:1], stream, 0)
}

func TestNewBankLimits(t *testing.T) {
	members := make([]*Cache, MaxBankMembers+1)
	for i := range members {
		members[i] = mustNew(Baseline)
	}
	if _, err := NewBank(members); err == nil {
		t.Errorf("NewBank accepted %d members", len(members))
	}
	if _, err := NewBank(members[:MaxBankMembers]); err != nil {
		t.Errorf("NewBank(%d members) = %v", MaxBankMembers, err)
	}
	empty, err := NewBank(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m := empty.Access(0x1000, false); m != 0 {
		t.Errorf("empty bank reported misses %b", m)
	}
	empty.Flush()
}

// FuzzBank decodes its input into an access stream and checks every
// bank of bankGeoms against the reference models, as
// TestBankAgainstReferenceModel does. Each access takes three bytes:
// the first holds the store flag (bit 0), a mode (bit 1) and a byte
// offset (bits 2-6); in relative mode the next byte is a signed word
// step from the previous address, otherwise the next two bytes pick one
// of 64K blocks of 32 bytes, a 2 MB span that conflicts in every
// geometry.
func FuzzBank(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 1, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 1, 0, 0, 2, 0, 0, 4, 0, 0, 8, 0, 0, 16, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var stream []bankAccess
		var addr uint32
		for ; len(data) >= 3; data = data[3:] {
			op := data[0]
			if op&2 != 0 {
				addr += uint32(int32(int8(data[1])) * 4)
			} else {
				addr = (uint32(data[2])<<8|uint32(data[1]))<<5 | uint32(op>>2)&31
			}
			stream = append(stream, bankAccess{addr, op&1 != 0})
		}
		for _, cfgs := range bankGeoms {
			checkBank(t, cfgs, stream, 0)
		}
	})
}

// TestBankFilterShape pins the filter NewBank derives: one slot per
// value of the set-index bits all members share, keyed by the finest
// block. The standard geometries keep 32 slots of 32 B blocks; Table S3
// indexes by the same bits but keys by its 16 B blocks; members with
// disjoint set-index bits share one slot.
func TestBankFilterShape(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cfgs      []Config
		slots     int
		keyBytes  int
		indexBits uint
	}{
		{"std", stdGeoms, 32, 32, 5},
		{"S3", blockGeoms, 32, 16, 6},
		{"fifo-mix", fifoGeoms, 32, 32, 5},
		{"disjoint", disjointGeoms, 1, 16, 7},
		{"all-fifo", allFIFOGeoms, 16, 16, 6},
	} {
		members := make([]*Cache, len(tc.cfgs))
		for i, cfg := range tc.cfgs {
			members[i] = mustNew(cfg)
		}
		b, err := NewBank(members)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.filter) != tc.slots || b.mask != uint32(tc.slots-1) {
			t.Errorf("%s: %d slots (mask %#x), want %d", tc.name, len(b.filter), b.mask, tc.slots)
		}
		if 1<<b.keyShift != tc.keyBytes {
			t.Errorf("%s: key of %d B blocks, want %d B", tc.name, 1<<b.keyShift, tc.keyBytes)
		}
		if tc.slots > 1 && b.setShift != tc.indexBits {
			t.Errorf("%s: slot index from bit %d, want bit %d", tc.name, b.setShift, tc.indexBits)
		}
	}
}

// TestBankFlushForgetsFilter: after Flush the members may be driven
// directly, so the bank must not trust a filter entry from before it.
func TestBankFlushForgetsFilter(t *testing.T) {
	c := mustNew(Baseline)
	bank, err := NewBank([]*Cache{c, mustNew(Training)})
	if err != nil {
		t.Fatal(err)
	}
	bank.Access(0x1000, false)
	if m := bank.Access(0x1000, false); m != 0 {
		t.Fatalf("repeat access missed: %b", m)
	}
	bank.Flush()
	if st := c.Stats(); st.Accesses != 2 || st.Misses != 1 {
		t.Errorf("stats after Flush = %+v", st)
	}
	c.Reset()
	if m := bank.Access(0x1000, false); m != 1 {
		t.Errorf("access after Reset: miss mask %b, want 1", m)
	}
}
