//go:build hydradebug && !amd64

package invariant

import "unsafe"

// getg has no stub on this architecture: gid parses stacks.
func getg() unsafe.Pointer { return nil }
