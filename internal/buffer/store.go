// Package buffer implements the buffer pool: the cache of database
// pages between the storage manager and stable storage. It supports a
// conventional configuration (a single shard, i.e. one global mutex —
// the classic scalability choke point) and a scalable configuration
// (hash-partitioned shards with per-shard clock replacement).
package buffer

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"hydra/internal/page"
)

// PageStore is the stable storage pages are read from and written to.
type PageStore interface {
	// ReadPage fills p with the stored image of page id. An allocated
	// page that was never written has no image: it reads as the zero
	// page, which Verify accepts as "never sealed".
	ReadPage(id page.ID, p *page.Page) error
	// WritePage persists p's current image.
	WritePage(p *page.Page) error
	// Allocate reserves the next page id and nothing else: no IO, no
	// image. The store holds the page from its first WritePage on, and
	// a reservation that was never written does not survive a reopen
	// unless a later id was (restart re-reserves what its log names).
	Allocate() (page.ID, error)
	// NumPages returns the number of allocated pages.
	NumPages() (uint64, error)
	// Sync makes preceding writes durable.
	Sync() error
	// Close releases the store.
	Close() error
}

// ErrBadPage is returned when a page read fails verification.
var ErrBadPage = errors.New("buffer: page failed checksum verification")

// FileStore is a PageStore over a single file of page.Size pages.
// Page ids are file offsets divided by the page size.
type FileStore struct {
	f *os.File
	// n is the number of reserved ids. The file may be shorter (ids
	// reserved but not yet written) and may have holes below its end.
	n atomic.Uint64
}

// OpenFileStore opens (creating if necessary) a file-backed store.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("buffer: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size()%page.Size != 0 {
		f.Close()
		return nil, fmt.Errorf("buffer: %s is not page aligned (%d bytes)", path, st.Size())
	}
	s := &FileStore{f: f}
	s.n.Store(uint64(st.Size()) / page.Size)
	return s, nil
}

// ReadPage implements PageStore, verifying the checksum. A reserved
// page the file does not reach yet reads as zeros, exactly like a hole
// below the file's end.
func (s *FileStore) ReadPage(id page.ID, p *page.Page) error {
	if uint64(id) >= s.n.Load() {
		return fmt.Errorf("buffer: read unallocated page %d", id)
	}
	b := p.Bytes()
	if n, err := s.f.ReadAt(b, int64(id)*page.Size); err == io.EOF {
		clear(b[n:])
	} else if err != nil {
		return fmt.Errorf("buffer: read page %d: %w", id, err)
	}
	if err := p.Verify(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPage, err)
	}
	return nil
}

// WritePage implements PageStore, sealing the checksum first.
func (s *FileStore) WritePage(p *page.Page) error {
	p.Seal()
	if _, err := s.f.WriteAt(p.Bytes(), int64(p.ID())*page.Size); err != nil {
		return fmt.Errorf("buffer: write page %d: %w", p.ID(), err)
	}
	return nil
}

// Allocate implements PageStore.
func (s *FileStore) Allocate() (page.ID, error) {
	return page.ID(s.n.Add(1) - 1), nil
}

// NumPages implements PageStore.
func (s *FileStore) NumPages() (uint64, error) { return s.n.Load(), nil }

// Sync implements PageStore.
func (s *FileStore) Sync() error { return s.f.Sync() }

// Close implements PageStore.
func (s *FileStore) Close() error { return s.f.Close() }

// MemStore is an in-memory PageStore for tests and CPU-bound
// experiments.
type MemStore struct {
	mu    sync.RWMutex
	pages [][]byte
	// FailReads, when set, makes every ReadPage return this error
	// (fault injection).
	failRead error
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// FailReads arranges for subsequent reads to fail with err; pass nil
// to heal.
func (s *MemStore) FailReads(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failRead = err
}

// ReadPage implements PageStore.
func (s *MemStore) ReadPage(id page.ID, p *page.Page) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.failRead != nil {
		return s.failRead
	}
	if uint64(id) >= uint64(len(s.pages)) {
		return fmt.Errorf("buffer: read unallocated page %d", id)
	}
	if s.pages[id] == nil {
		clear(p.Bytes())
		return nil
	}
	if err := p.Load(s.pages[id]); err != nil {
		return err
	}
	if err := p.Verify(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPage, err)
	}
	return nil
}

// WritePage implements PageStore.
func (s *MemStore) WritePage(p *page.Page) error {
	p.Seal()
	s.mu.Lock()
	defer s.mu.Unlock()
	id := uint64(p.ID())
	if id >= uint64(len(s.pages)) {
		return fmt.Errorf("buffer: write unallocated page %d", id)
	}
	if s.pages[id] == nil {
		s.pages[id] = make([]byte, page.Size)
	}
	copy(s.pages[id], p.Bytes())
	return nil
}

// Allocate implements PageStore.
func (s *MemStore) Allocate() (page.ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages = append(s.pages, nil)
	return page.ID(len(s.pages) - 1), nil
}

// NumPages implements PageStore.
func (s *MemStore) NumPages() (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return uint64(len(s.pages)), nil
}

// Sync implements PageStore.
func (s *MemStore) Sync() error { return nil }

// Close implements PageStore.
func (s *MemStore) Close() error { return nil }
