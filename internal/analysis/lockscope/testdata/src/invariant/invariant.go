// Package invariant models internal/invariant's ranked lock types: a
// plain acquire and the clocked one.
package invariant

type Tier interface{ rank() int }

type PoolShard struct{}

func (PoolShard) rank() int { return 70 }

// PhaseClock stands in for obs.PhaseClock.
type PhaseClock struct{}

type Mutex[T Tier] struct{ held bool }

func (m *Mutex[T]) Lock()               { m.held = true }
func (m *Mutex[T]) LockC(c *PhaseClock) { m.held = true }
func (m *Mutex[T]) Unlock()             { m.held = false }
