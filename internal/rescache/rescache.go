// Package rescache is the repository's one keyed, once-only result
// cache. Concurrent callers of Do with the same key share one in-flight
// fill — the first caller runs it, later callers wait for it — so an
// expensive computation is never duplicated and never serialised behind
// an unrelated one. The experiment engine (bench builds and runs,
// pattern summaries, tables training) uses it unbounded; the serve
// layer uses it as a content-addressed LRU keyed by canonical request
// digests, carrying the fully rendered response for each key. Three
// properties matter at fleet scale:
//
//   - retention can be bounded: an entry-count cap and a byte-size cap
//     evict from the LRU tail, and an optional TTL expires stale entries
//     lazily on access, so the cache cannot grow without bound under
//     millions of distinct requests;
//   - the filler decides cacheability per result: a degraded render or
//     a breaker short-circuit is delivered to its waiters but never
//     retained, so a transient failure cannot poison future requests;
//   - waiting is context-aware: a caller joined to another caller's
//     in-flight fill abandons the wait when its own context is
//     cancelled (client disconnect, per-request deadline, drain abort)
//     while the fill itself keeps running for the remaining waiters.
//
// A panicking fill is recovered into a *PanicError and delivered to
// every joined waiter and, like any error, is not retained: the next Do
// for the key recomputes.
package rescache

import (
	"container/list"
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// PanicError is delivered to every caller of a fill that panicked: the
// cache recovers the panic so joined waiters are released instead of
// deadlocking on a done channel that would never close, and so one
// crashed computation degrades gracefully rather than killing the
// worker pool above it.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine, for diagnostics
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("rescache: fill panicked: %v", e.Value)
}

// Unwrap exposes the panic value to errors.Is/As when it was itself an
// error (e.g. a deliberate fault-injection crash).
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Outcome reports how one Do call was answered.
type Outcome int

const (
	// OutcomeMiss: this caller executed the fill.
	OutcomeMiss Outcome = iota
	// OutcomeHit: answered from a retained entry, no fill ran.
	OutcomeHit
	// OutcomeCoalesced: joined another caller's in-flight fill.
	OutcomeCoalesced
	// OutcomeWarm: answered from an entry seeded by durable-state
	// replay — a hit this process never paid a fill for.
	OutcomeWarm
)

func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeCoalesced:
		return "coalesced"
	case OutcomeWarm:
		return "warm"
	default:
		return "miss"
	}
}

// Config bounds one cache. Zero values mean "unbounded" (no entry cap,
// no byte cap, no expiry); callers wanting limits must set them.
type Config struct {
	// MaxEntries caps retained entries; <= 0 means no entry cap.
	MaxEntries int
	// MaxBytes caps the summed Size of retained values; <= 0 means no
	// byte cap.
	MaxBytes int64
	// TTL expires entries this long after insertion; <= 0 means never.
	// Expiry is lazy: an expired entry is dropped by the next access
	// (which then refills it) rather than by a background sweeper.
	TTL time.Duration
	// Now is the clock; nil means time.Now. Tests inject a fake clock
	// here so TTL expiry is asserted without sleeping.
	Now func() time.Time
}

// Stats is a snapshot of the cache's activity counters. Hits, Misses,
// Coalesced, Errors, Uncacheable, EvictedSize and EvictedTTL are
// monotonic until Reset; Entries, Bytes and Inflight are current.
type Stats struct {
	Hits        uint64 // answered from a retained entry (warm hits included)
	WarmHits    uint64 // the subset of Hits answered from seeded (replayed) entries
	Misses      uint64 // fills executed (exactly-once per key when keys are distinct)
	Coalesced   uint64 // callers that joined an in-flight fill
	Errors      uint64 // fills that finished with an error (not retained)
	Uncacheable uint64 // fills that succeeded but declined retention
	EvictedSize uint64 // entries evicted by the entry or byte cap
	EvictedTTL  uint64 // entries dropped because their TTL had expired
	Entries     int    // retained entries now
	Bytes       int64  // summed Size of retained values now
	Inflight    int    // fills running now (detached fills excluded)
}

// Cache is a bounded, content-addressed, request-coalescing result
// cache. The zero value is not usable; construct with New.
type Cache[V any] struct {
	cfg  Config
	size func(V) int

	mu      sync.Mutex
	entries map[string]*entry[V]
	lru     *list.List // front = most recently used; element values are *entry[V]
	bytes   int64
	stats   Stats
	onEvict func(key string, v V)
}

type entry[V any] struct {
	key  string
	done chan struct{} // closed when the fill finishes
	val  V
	err  error
	// complete, size, expires, elem and warm are guarded by Cache.mu;
	// val and err are written by the filling goroutine before done is
	// closed, so both the hit path and joined waiters observe them.
	complete bool
	warm     bool // seeded from durable-state replay, not filled here
	size     int
	expires  time.Time     // zero = never
	elem     *list.Element // nil while in flight or once dropped
}

// New builds a cache bounded by cfg. size reports the retention cost of
// one value (the byte cap sums it); nil charges every entry one unit,
// making MaxBytes an entry cap too.
func New[V any](cfg Config, size func(V) int) *Cache[V] {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if size == nil {
		size = func(V) int { return 1 }
	}
	return &Cache[V]{
		cfg:     cfg,
		size:    size,
		entries: map[string]*entry[V]{},
		lru:     list.New(),
	}
}

// protect runs fill, converting a panic into a *PanicError so joined
// waiters are released instead of deadlocking.
func protect[V any](fill func() (V, bool, error)) (v V, cacheable bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero V
			v, cacheable, err = zero, false, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fill()
}

// Do returns the cached value for key, filling it if needed. Concurrent
// calls with the same key share one fill invocation: the first caller
// runs it (OutcomeMiss), later callers wait for it (OutcomeCoalesced)
// unless their ctx is cancelled first, in which case they return
// ctx.Err() and abandon the wait (the fill keeps running).
//
// fill reports (value, cacheable, err). The value is retained only when
// err is nil AND cacheable is true; errors and declined results are
// delivered to every waiter of that flight but the next Do for the key
// starts fresh.
func (c *Cache[V]) Do(ctx context.Context, key string, fill func() (V, bool, error)) (V, Outcome, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if !e.complete {
			c.stats.Coalesced++
			c.mu.Unlock()
			select {
			case <-e.done:
				return e.val, OutcomeCoalesced, e.err
			case <-ctx.Done():
				var zero V
				return zero, OutcomeCoalesced, ctx.Err()
			}
		}
		// A complete entry in the map is always retained (errors and
		// uncacheable results are removed before done closes).
		if e.expires.IsZero() || c.cfg.Now().Before(e.expires) {
			c.lru.MoveToFront(e.elem)
			c.stats.Hits++
			out := OutcomeHit
			if e.warm {
				c.stats.WarmHits++
				out = OutcomeWarm
			}
			val := e.val
			c.mu.Unlock()
			return val, out, nil
		}
		c.stats.EvictedTTL++
		c.dropLocked(e)
		// fall through: this caller refills the expired key.
	}
	e := &entry[V]{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.stats.Misses++
	c.mu.Unlock()

	var cacheable bool
	e.val, cacheable, e.err = protect(fill)

	c.mu.Lock()
	e.complete = true
	switch {
	case e.err != nil:
		c.stats.Errors++
	case !cacheable:
		c.stats.Uncacheable++
	}
	if e.err == nil && cacheable && c.entries[key] == e {
		e.size = c.size(e.val)
		if c.cfg.TTL > 0 {
			e.expires = c.cfg.Now().Add(c.cfg.TTL)
		}
		e.elem = c.lru.PushFront(e)
		c.bytes += int64(e.size)
		c.evictLocked()
	} else if c.entries[key] == e {
		// Not retained: unregister so the next Do recomputes. The
		// registration check guards against a Reset during the fill, which
		// detaches this entry and may have let a newer flight take the key.
		delete(c.entries, key)
	}
	c.mu.Unlock()
	close(e.done)
	return e.val, OutcomeMiss, e.err
}

// Get returns the retained, unexpired value for key without filling.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !e.complete {
		var zero V
		return zero, false
	}
	if !e.expires.IsZero() && !c.cfg.Now().Before(e.expires) {
		c.stats.EvictedTTL++
		c.dropLocked(e)
		var zero V
		return zero, false
	}
	c.lru.MoveToFront(e.elem)
	c.stats.Hits++
	return e.val, true
}

// dropLocked removes a retained entry from the map, the LRU and the
// byte budget, notifying the eviction hook. Caller holds c.mu.
func (c *Cache[V]) dropLocked(e *entry[V]) {
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
		c.bytes -= int64(e.size)
		if c.onEvict != nil {
			c.onEvict(e.key, e.val)
		}
	}
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
	}
}

// evictLocked enforces the entry and byte caps by evicting from the LRU
// tail. A single value larger than MaxBytes is evicted immediately: it
// was still delivered to its waiters, it just is not retained.
func (c *Cache[V]) evictLocked() {
	for c.lru.Len() > 0 {
		over := (c.cfg.MaxEntries > 0 && c.lru.Len() > c.cfg.MaxEntries) ||
			(c.cfg.MaxBytes > 0 && c.bytes > c.cfg.MaxBytes)
		if !over {
			return
		}
		c.stats.EvictedSize++
		c.dropLocked(c.lru.Back().Value.(*entry[V]))
	}
}

// Len returns the number of retained entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes returns the summed size of retained values.
func (c *Cache[V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a snapshot of the activity counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.lru.Len()
	st.Bytes = c.bytes
	// A complete entry in the map is always in the LRU, so the rest of
	// the map is exactly the registered in-flight fills.
	st.Inflight = len(c.entries) - st.Entries
	return st
}

// Reset drops every retained entry and zeroes the counters. In-flight
// fills are detached: they complete and answer their waiters, but
// their results are not retained, and a Do issued after the Reset
// starts a fresh fill even for the same key. The eviction hook is NOT
// called: Reset is an administrative wipe, not an eviction, and durable
// state keyed off the hook must not mistake it for one.
func (c *Cache[V]) Reset() {
	c.mu.Lock()
	c.entries = map[string]*entry[V]{}
	c.lru = list.New()
	c.bytes = 0
	c.stats = Stats{}
	c.mu.Unlock()
}

// SetOnEvict installs a hook called once per entry evicted by the entry
// cap, the byte cap, or TTL expiry (not by Reset). The hook runs with
// the cache's mutex held: it must be fast and must not call back into
// the cache. The durability layer uses it to count dead log records so
// it knows when a compaction pays for itself.
func (c *Cache[V]) SetOnEvict(fn func(key string, v V)) {
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// Seed inserts a complete, retained entry without running a fill — the
// warm-restart path, where values replayed from the durable log are
// planted before the server accepts traffic. A seeded entry answers Do
// with OutcomeWarm. Seeding an existing key is a no-op (false): a live
// fill or a fresher entry always wins over replayed state. The caps are
// enforced immediately, so seeding more than the configured bounds
// evicts in seed order (oldest seed first) — eviction-during-replay is
// ordinary eviction.
func (c *Cache[V]) Seed(key string, v V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	e := &entry[V]{key: key, done: make(chan struct{}), val: v, complete: true, warm: true}
	close(e.done)
	e.size = c.size(v)
	if c.cfg.TTL > 0 {
		e.expires = c.cfg.Now().Add(c.cfg.TTL)
	}
	c.entries[key] = e
	e.elem = c.lru.PushFront(e)
	c.bytes += int64(e.size)
	c.evictLocked()
	return true
}

// Item is one retained entry, as snapshotted by Items.
type Item[V any] struct {
	Key string
	Val V
}

// Items snapshots the retained, complete entries from least- to
// most-recently used — the order a compacted log should persist them
// in, so that replay-then-Seed reconstructs the same LRU order.
func (c *Cache[V]) Items() []Item[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	items := make([]Item[V], 0, c.lru.Len())
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry[V])
		items = append(items, Item[V]{Key: e.key, Val: e.val})
	}
	return items
}
