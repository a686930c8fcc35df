package rescache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// The TestMemo* tests pin the once-only memoisation use of the cache
// that bench, tables and pattern rely on: New(Config{}, nil), no sizer,
// every successful fill retained, errors and panics never retained.

// memoDo calls Do the way the memoising callers do: the fill always
// asks for retention, and the outcome is ignored.
func memoDo[V any](c *Cache[V], key string, fn func() (V, error)) (V, error) {
	v, _, err := c.Do(context.Background(), key, func() (V, bool, error) {
		v, err := fn()
		return v, true, err
	})
	return v, err
}

func TestMemoDoMemoises(t *testing.T) {
	c := New[int](Config{}, nil)
	calls := 0
	fn := func() (int, error) { calls++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, err := memoDo(c, "k", fn)
		if err != nil || v != 42 {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if v, ok := c.Get("k"); !ok || v != 42 {
		t.Errorf("Get = %v, %v", v, ok)
	}
	if _, ok := c.Get("absent"); ok {
		t.Error("Get(absent) succeeded")
	}
}

// TestMemoSingleflight launches many goroutines on one key while the
// first computation is deliberately held open: exactly one fn
// invocation, and every later caller coalesces onto it.
func TestMemoSingleflight(t *testing.T) {
	c := New[int](Config{}, nil)
	const n = 16
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func() (int, error) {
		calls.Add(1)
		close(started)
		<-release
		return 7, nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if v, _ := memoDo(c, "k", fn); v != 7 {
			t.Errorf("leader got %d", v)
		}
	}()
	<-started // the leader is inside fn; everyone else must coalesce

	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := memoDo(c, "k", func() (int, error) {
				t.Error("second computation started")
				return 0, nil
			})
			if err != nil || v != 7 {
				t.Errorf("joiner got %v, %v", v, err)
			}
		}()
	}
	// Wait until every joiner is accounted for, then let the flight finish.
	waitUntil(t, func() bool { return c.Stats().Coalesced == n })
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != n || st.Inflight != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestMemoErrorsNotRetained: a failed computation is delivered but the
// next Do retries.
func TestMemoErrorsNotRetained(t *testing.T) {
	c := New[int](Config{}, nil)
	boom := errors.New("boom")
	calls := 0
	fn := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 9, nil
	}
	if _, err := memoDo(c, "k", fn); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v", err)
	}
	if v, err := memoDo(c, "k", fn); err != nil || v != 9 {
		t.Fatalf("retry = %v, %v", v, err)
	}
	st := c.Stats()
	if st.Errors != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestMemoResetDetachesInflight: a Reset issued while a computation is
// running leaves that computation to answer its own callers, while a
// post-Reset Do for the same key starts fresh without waiting for it,
// and the detached completion does not clobber the newer entry.
func TestMemoResetDetachesInflight(t *testing.T) {
	c := New[string](Config{}, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan string)
	go func() {
		v, _ := memoDo(c, "k", func() (string, error) {
			close(started)
			<-release
			return "old", nil
		})
		done <- v
	}()
	<-started
	c.Reset()

	// The detached flight is no longer visible: a new Do recomputes
	// while the old one is still running.
	recompute := make(chan string)
	go func() {
		v, _ := memoDo(c, "k", func() (string, error) { return "new", nil })
		recompute <- v
	}()
	if v := <-recompute; v != "new" {
		t.Errorf("post-reset Do = %q, want \"new\"", v)
	}
	close(release)
	if v := <-done; v != "old" {
		t.Errorf("detached caller got %q, want \"old\"", v)
	}
	// Only the post-reset result is retained.
	if v, ok := c.Get("k"); !ok || v != "new" {
		t.Errorf("retained = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Inflight != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestMemoPanicBecomesError: a panicking computation must not kill the
// process or deadlock coalesced waiters; every caller gets a
// *PanicError and the failed key is recomputable.
func TestMemoPanicBecomesError(t *testing.T) {
	c := New[int](Config{}, nil)
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	errs := make([]error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0] = memoDo(c, "k", func() (int, error) {
			close(started)
			<-release
			panic("deliberate")
		})
	}()
	<-started
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = memoDo(c, "k", func() (int, error) { return 0, nil })
		}(i)
	}
	// Let the waiters attach, then let the panic fly.
	waitUntil(t, func() bool { return c.Stats().Coalesced == 3 })
	close(release)
	wg.Wait()

	for i, err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("caller %d: err = %v, want *PanicError", i, err)
		}
		if pe.Value != "deliberate" || len(pe.Stack) == 0 {
			t.Errorf("caller %d: PanicError = %+v", i, pe)
		}
	}

	// The error is not retained: the key recomputes cleanly.
	v, err := memoDo(c, "k", func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Errorf("recompute after panic = %d, %v", v, err)
	}
	if st := c.Stats(); st.Inflight != 0 {
		t.Errorf("inflight = %d after panic", st.Inflight)
	}
}
