//go:build hydradebug

package invariant

import "unsafe"

// getg returns the running goroutine's runtime record, which the
// runtime keeps in thread-local storage (gid_amd64.s).
func getg() unsafe.Pointer
