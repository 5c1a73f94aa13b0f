//go:build !hydradebug

package invariant

import "sync"

// Enabled reports whether the assertions are compiled in.
const Enabled = false

// Mutex and RWMutex are the sync types themselves in a release build:
// the tier lives only in the declaration.
type (
	Mutex[T Tier]   = sync.Mutex
	RWMutex[T Tier] = sync.RWMutex
)

// The release-build stubs are empty so instrumented call sites inline
// to nothing.

func Acquired(tier int, site string) {}
func Released(tier int, site string) {}
func PoolGot(site string, obj any)   {}
func PoolPut(site string, obj any)   {}
func Assert(cond bool, msg string)   {}
