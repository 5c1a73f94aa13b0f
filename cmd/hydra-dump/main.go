// Command hydra-dump inspects a hydra data file (pages.db) offline,
// without opening the engine or replaying the log: it decodes the
// meta page, walks each table's heap chain, and prints structure
// statistics (and optionally the rows). Because it bypasses recovery
// it shows the *on-disk* state, which after a crash may legitimately
// trail the log — pair it with hydra-recover to see both sides. A
// crashed, unrecovered pages.db may lack tables created after page 0
// was last written: a table's creation is a log record, which restart
// applies to page 0. It may also name a table whose pages it does not
// hold yet (a checkpoint writes page 0 alone): a heap page at or past
// the file's end is reported as not written yet, its contents being in
// the log, and the dump goes on with the next table.
//
// Usage:
//
//	hydra-dump -data /path/to/pages.db [-rows] [-table name]
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"

	"hydra/internal/buffer"
	"hydra/internal/core"
	"hydra/internal/page"
	"hydra/internal/wal"
)

func main() {
	path := flag.String("data", "", "path to pages.db")
	showRows := flag.Bool("rows", false, "print every live row")
	only := flag.String("table", "", "restrict to one table")
	flag.Parse()
	if *path == "" {
		fmt.Fprintln(os.Stderr, "hydra-dump: -data is required")
		os.Exit(2)
	}
	if err := run(*path, *showRows, *only); err != nil {
		fmt.Fprintf(os.Stderr, "hydra-dump: %v\n", err)
		os.Exit(1)
	}
}

func run(path string, showRows bool, only string) error {
	store, err := buffer.OpenFileStore(path)
	if err != nil {
		return err
	}
	defer store.Close()
	n, err := store.NumPages()
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d pages (%d KiB)\n", path, n, n*page.Size/1024)
	if n == 0 {
		return nil
	}

	var meta page.Page
	if err := store.ReadPage(0, &meta); err != nil {
		return fmt.Errorf("meta page: %w", err)
	}
	rec, err := meta.Read(0)
	if err != nil {
		return fmt.Errorf("meta record: %w", err)
	}
	master, tables, err := core.DecodeMeta(rec)
	if err != nil {
		return fmt.Errorf("meta record: %w", err)
	}
	if master == wal.NilLSN {
		fmt.Println("master: none (no checkpoint taken; analysis starts at the log's origin)")
	} else {
		fmt.Printf("master: analysis starts at LSN %d\n", master)
	}

	fmt.Printf("catalog: %d table(s)\n\n", len(tables))
	for _, t := range tables {
		if only != "" && t.Name != only {
			continue
		}
		if err := dumpTable(store, n, t.ID, t.Name, t.HeapFirst, showRows); err != nil {
			return fmt.Errorf("table %s: %w", t.Name, err)
		}
	}
	return nil
}

// dumpTable walks one table's heap chain in a file of n pages.
func dumpTable(store *buffer.FileStore, n uint64, id uint32, name string, first page.ID, showRows bool) error {
	fmt.Printf("table %q (id %d), heap head page %d\n", name, id, first)
	var (
		pages, rows, tombs int
		bytes              int
	)
	cur := first
	for cur != page.InvalidID {
		if uint64(cur) >= n {
			fmt.Printf("  page %d: not written yet (its contents are in the log)\n", cur)
			break
		}
		var p page.Page
		if err := store.ReadPage(cur, &p); err != nil {
			return fmt.Errorf("page %d: %w", cur, err)
		}
		pages++
		err := p.LiveRecords(func(slot int, rec []byte) bool {
			rows++
			bytes += len(rec)
			if showRows && len(rec) >= 8 {
				key := binary.LittleEndian.Uint64(rec)
				val := rec[8:]
				if len(val) > 32 {
					fmt.Printf("  %12d  %q... (%dB)\n", key, val[:32], len(val))
				} else {
					fmt.Printf("  %12d  %q\n", key, val)
				}
			}
			return true
		})
		if err != nil {
			return fmt.Errorf("page %d: %w", cur, err)
		}
		tombs += p.SlotCount() - p.LiveCount()
		cur = p.Next()
	}
	fmt.Printf("  %d page(s), %d live row(s), %d tombstone(s), %d payload bytes\n\n",
		pages, rows, tombs, bytes)
	return nil
}
