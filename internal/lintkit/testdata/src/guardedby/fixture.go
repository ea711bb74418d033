// Package guardedby is the guardedby fixture: fields annotated
// `guarded by <mu>` must only be touched under that mutex, from *Locked
// helpers, or during constructor initialization.
package guardedby

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// inc holds the lock: clean.
func (c *counter) inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// read touches the field with no visible lock acquisition.
func (c *counter) read() int {
	return c.n // want "without acquiring mu"
}

// snapshotLocked carries the caller-holds-the-lock suffix: clean.
func (c *counter) snapshotLocked() int { return c.n }

// newCounter initializes a freshly allocated value before sharing: clean.
func newCounter() *counter {
	c := &counter{}
	c.n = 1
	return c
}

// table is a generic type: annotations on its fields are checked in its
// methods, whose receivers are instances of the declaration.
type table[T any] struct {
	mu   sync.Mutex
	recs map[string]T // guarded by mu
}

func (t *table[T]) get(id string) T {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recs[id]
}

func (t *table[T]) peek(id string) T {
	return t.recs[id] // want "without acquiring mu"
}
