//go:build !hydradebug

package invariant

// Enabled reports whether the assertions are compiled in.
const Enabled = false

// The release-build stubs are empty so instrumented call sites inline
// to nothing.

func acquired(t *tier)             {}
func entered(t *tier)              {}
func released(t *tier)             {}
func PoolGot(site string, obj any) {}
func PoolPut(site string, obj any) {}
func Assert(cond bool, msg string) {}
