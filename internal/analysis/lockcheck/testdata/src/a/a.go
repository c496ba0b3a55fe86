package a

import (
	"sort"
	"sync"
)

// Counter exercises the plain-Mutex discipline.
type Counter struct {
	mu sync.Mutex
	n  int            // guarded by mu
	m  map[string]int // guarded by mu

	free int // not guarded: may be accessed lock-free
}

func (c *Counter) Good() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *Counter) Bad() int {
	return c.n // want `access to c\.n without holding mu`
}

func (c *Counter) BadWrite() {
	c.m["k"] = 1 // want `access to c\.m without holding mu`
}

func (c *Counter) FreeOK() int {
	return c.free
}

// EarlyReturn unlocks on a terminating branch; the fall-through path
// still holds the lock and must not be flagged.
func (c *Counter) EarlyReturn() int {
	c.mu.Lock()
	if len(c.m) == 0 {
		c.mu.Unlock()
		return 0
	}
	v := c.n
	c.mu.Unlock()
	return v
}

func (c *Counter) BadAfterUnlock() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.n++ // want `access to c\.n without holding mu`
}

// bumpLocked is a caller-holds-the-lock helper: the Locked suffix
// exempts it.
func (c *Counter) bumpLocked() {
	c.n++
}

// GoroutineBad launches a goroutine: the launcher's lock does not
// transfer, so the access inside starts unheld.
func (c *Counter) GoroutineBad() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want `access to c\.n without holding mu`
	}()
}

// GoroutineGood relocks inside the goroutine.
func (c *Counter) GoroutineGood() {
	go func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n++
	}()
}

// CallbackUnderLock runs a synchronous closure while the lock is held;
// the closure inherits the held state.
func (c *Counter) CallbackUnderLock(keys []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		return c.m[keys[i]] < c.m[keys[j]]
	})
}

// LoopLock locks per iteration; accesses inside the held window are fine
// and the state after the loop is unchanged.
func (c *Counter) LoopLock(keys []string) {
	for range keys {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
	c.n++ // want `access to c\.n without holding mu`
}

// Table exercises the RWMutex discipline.
type Table struct {
	mu sync.RWMutex
	v  int // guarded by mu
}

func (t *Table) ReadGood() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.v
}

func (t *Table) ReadBad() int {
	return t.v // want `access to t\.v without holding mu`
}

// Outer embeds Counter: its own field may be guarded by Counter's mu, and
// Counter's guarded fields stay guarded when reached through Outer.
type Outer struct {
	Counter
	conns map[int]bool // guarded by mu
}

func (o *Outer) Good() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.conns[1] = true
	o.n++
}

func (o *Outer) BadOwn() bool {
	return o.conns[1] // want `access to o\.conns without holding mu`
}

func (o *Outer) BadPromoted() int {
	return o.n // want `access to o\.n without holding mu`
}

// Shadow declares its own n, which is not Counter's guarded one.
type Shadow struct {
	Counter
	n int
}

func (s *Shadow) OwnN() int {
	return s.n
}

// Misannotated names a guard that is not a mutex field.
type Misannotated struct {
	x int // guarded by lock // want `not a sync\.Mutex or sync\.RWMutex field`
}
