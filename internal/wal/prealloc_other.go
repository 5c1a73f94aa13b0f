//go:build !linux

package wal

import "os"

func preallocate(f *os.File, off, n int64) error { return extendSparse(f, off+n) }

func datasync(f *os.File) error { return f.Sync() }
