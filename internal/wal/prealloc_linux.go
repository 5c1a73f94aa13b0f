//go:build linux

package wal

import (
	"os"
	"syscall"
)

// preallocate reserves blocks for [off, off+n) of f and extends its
// size to cover them, writing no data (fallocate mode 0). File systems
// without fallocate get a sparse extension instead.
func preallocate(f *os.File, off, n int64) error {
	for {
		switch err := syscall.Fallocate(int(f.Fd()), 0, off, n); err {
		case syscall.EINTR:
		case syscall.EOPNOTSUPP, syscall.ENOSYS:
			return extendSparse(f, off+n)
		default:
			return os.NewSyscallError("fallocate", err)
		}
	}
}

// datasync makes f's written data durable without forcing out
// metadata that is not needed to read it back (mtime).
func datasync(f *os.File) error {
	for {
		if err := syscall.Fdatasync(int(f.Fd())); err != syscall.EINTR {
			return os.NewSyscallError("fdatasync", err)
		}
	}
}
