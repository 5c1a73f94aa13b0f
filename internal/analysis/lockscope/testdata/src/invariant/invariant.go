// Package invariant models internal/invariant's ranked lock types as a
// hydradebug build declares them; in a release build they are the sync
// types, which the sync model covers.
package invariant

type Tier interface{ rank() int }

type PoolShard struct{}

func (PoolShard) rank() int { return 70 }

type Mutex[T Tier] struct{ held bool }

func (m *Mutex[T]) Lock()   { m.held = true }
func (m *Mutex[T]) Unlock() { m.held = false }
