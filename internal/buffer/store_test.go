package buffer

import (
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"

	"hydra/internal/page"
)

// fileUse returns the size of path and the blocks the file system has
// given it.
func fileUse(t *testing.T, path string) (size, blocks int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := fi.Sys().(*syscall.Stat_t); ok {
		blocks = st.Blocks
	}
	return fi.Size(), blocks
}

// mustBeZeroPage reads id and requires the never-written image: all
// zeros, which ReadPage verified on the way in.
func mustBeZeroPage(t *testing.T, s PageStore, id page.ID) {
	t.Helper()
	pg := page.New(77, page.TypeHeap) // stale frame content must not leak through
	if err := s.ReadPage(id, pg); err != nil {
		t.Fatalf("read of allocated, never-written page %d: %v", id, err)
	}
	for i, b := range pg.Bytes() {
		if b != 0 {
			t.Fatalf("page %d byte %d = %#x, want the zero page", id, i, b)
		}
	}
}

// The store contract of page birth, over both stores: Allocate reserves
// an id and nothing else, a page has an image from its first WritePage
// on, and until then it reads as the zero page.
func TestAllocateReservesAnIDAndNothingElse(t *testing.T) {
	const k = 40
	path := filepath.Join(t.TempDir(), "pages.db")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for name, s := range map[string]PageStore{"file": fs, "mem": NewMemStore()} {
		t.Run(name, func(t *testing.T) {
			size0, blocks0 := fileUse(t, path)
			for i := 0; i < k; i++ {
				id, err := s.Allocate()
				if err != nil || id != page.ID(i) {
					t.Fatalf("Allocate #%d = %d, %v", i, id, err)
				}
			}
			if n, _ := s.NumPages(); n != k {
				t.Fatalf("NumPages = %d after %d allocations", n, k)
			}
			if name == "file" {
				if size, blocks := fileUse(t, path); size != size0 || blocks != blocks0 {
					t.Fatalf("%d allocations moved the file from %d bytes / %d blocks to %d / %d: Allocate did IO",
						k, size0, blocks0, size, blocks)
				}
			}
			for id := page.ID(0); id < k; id++ {
				mustBeZeroPage(t, s, id)
			}
			if err := s.ReadPage(k, &page.Page{}); err == nil {
				t.Fatal("read of an id that was never allocated succeeded")
			}

			// The last id alone gets an image: everything below it is a
			// hole, still the zero page.
			last := page.New(k-1, page.TypeHeap)
			if _, err := last.Insert([]byte("born in the pool")); err != nil {
				t.Fatal(err)
			}
			if err := s.WritePage(last); err != nil {
				t.Fatal(err)
			}
			for id := page.ID(0); id < k-1; id++ {
				mustBeZeroPage(t, s, id)
			}
			var got page.Page
			if err := s.ReadPage(k-1, &got); err != nil {
				t.Fatal(err)
			}
			if rec, err := got.Read(0); err != nil || string(rec) != "born in the pool" {
				t.Fatalf("written page read back %q, %v", rec, err)
			}
		})
	}

	// A reopen counts what the file reaches: the written last page
	// carries the reservations below it.
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, _ := re.NumPages(); n != k {
		t.Fatalf("reopened store has %d pages, want %d", n, k)
	}
	mustBeZeroPage(t, re, 3)
}

// Allocate no longer serialises with page IO; run it against writers
// and readers of already-reserved pages under the race detector.
func TestAllocateConcurrentWithPageIO(t *testing.T) {
	s, err := OpenFileStore(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers, each = 4, 200
	var wg sync.WaitGroup
	ids := make([][]page.ID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var got page.Page
			for i := 0; i < each; i++ {
				id, err := s.Allocate()
				if err != nil {
					t.Error(err)
					return
				}
				ids[w] = append(ids[w], id)
				if err := s.ReadPage(id, &got); err != nil {
					t.Errorf("read of fresh page %d: %v", id, err)
					return
				}
				if i%2 == 0 { // leave every other page a hole
					if err := s.WritePage(page.New(id, page.TypeHeap)); err != nil {
						t.Error(err)
						return
					}
				}
				if err := s.ReadPage(id, &got); err != nil {
					t.Errorf("read of page %d: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	seen := map[page.ID]bool{}
	for _, list := range ids {
		for _, id := range list {
			if seen[id] {
				t.Fatalf("page id %d handed out twice", id)
			}
			seen[id] = true
		}
	}
	if n, _ := s.NumPages(); n != workers*each || len(seen) != workers*each {
		t.Fatalf("NumPages = %d, %d distinct ids, want %d", n, len(seen), workers*each)
	}
}
