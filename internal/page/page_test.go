package page

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"hydra/internal/rng"
)

func TestFormatHeader(t *testing.T) {
	p := New(7, TypeHeap)
	if p.ID() != 7 {
		t.Errorf("ID = %d, want 7", p.ID())
	}
	if p.Type() != TypeHeap {
		t.Errorf("Type = %v, want heap", p.Type())
	}
	if p.SlotCount() != 0 {
		t.Errorf("SlotCount = %d, want 0", p.SlotCount())
	}
	if p.Next() != InvalidID {
		t.Errorf("Next = %d, want InvalidID", p.Next())
	}
	if p.LSN() != 0 {
		t.Errorf("LSN = %d, want 0", p.LSN())
	}
	if got := p.FreeSpace(); got != Size-HeaderSize-slotSize {
		t.Errorf("FreeSpace = %d, want %d", got, Size-HeaderSize-slotSize)
	}
}

func TestInsertRead(t *testing.T) {
	p := New(1, TypeHeap)
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma-gamma")}
	var slots []int
	for _, r := range recs {
		s, err := p.Insert(r)
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got, err := p.Read(s)
		if err != nil {
			t.Fatalf("Read(%d): %v", s, err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Errorf("Read(%d) = %q, want %q", s, got, recs[i])
		}
	}
	if p.LiveCount() != 3 {
		t.Errorf("LiveCount = %d, want 3", p.LiveCount())
	}
}

func TestDeleteAndSlotReuse(t *testing.T) {
	p := New(1, TypeHeap)
	s0, _ := p.Insert([]byte("one"))
	s1, _ := p.Insert([]byte("two"))
	if err := p.Delete(s0); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := p.Read(s0); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("Read(deleted) err = %v, want ErrBadSlot", err)
	}
	if err := p.Delete(s0); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("double Delete err = %v, want ErrBadSlot", err)
	}
	// Reinsertion must reuse the tombstoned slot.
	s2, err := p.Insert([]byte("three"))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if s2 != s0 {
		t.Errorf("tombstone not reused: got slot %d, want %d", s2, s0)
	}
	if got, _ := p.Read(s1); !bytes.Equal(got, []byte("two")) {
		t.Errorf("neighbor record corrupted: %q", got)
	}
}

func TestUpdateInPlaceAndRelocate(t *testing.T) {
	p := New(1, TypeHeap)
	s, _ := p.Insert([]byte("0123456789"))
	if err := p.Update(s, []byte("short")); err != nil {
		t.Fatalf("shrink update: %v", err)
	}
	if got, _ := p.Read(s); string(got) != "short" {
		t.Fatalf("after shrink: %q", got)
	}
	long := bytes.Repeat([]byte("x"), 100)
	if err := p.Update(s, long); err != nil {
		t.Fatalf("grow update: %v", err)
	}
	if got, _ := p.Read(s); !bytes.Equal(got, long) {
		t.Fatalf("after grow: %d bytes", len(got))
	}
}

func TestUpdateGrowViaCompaction(t *testing.T) {
	p := New(1, TypeHeap)
	// Nearly fill the page with two large records, delete one, then
	// grow the other into the space that only compaction can reclaim.
	half := (Size - HeaderSize) / 2
	a := bytes.Repeat([]byte("a"), half-100)
	b := bytes.Repeat([]byte("b"), 3000)
	sa, err := p.Insert(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := p.Insert(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(sa); err != nil {
		t.Fatal(err)
	}
	grown := bytes.Repeat([]byte("B"), 4500)
	if err := p.Update(sb, grown); err != nil {
		t.Fatalf("grow via compaction: %v", err)
	}
	if got, _ := p.Read(sb); !bytes.Equal(got, grown) {
		t.Fatal("grown record corrupted")
	}
}

func TestUpdateTooBigRestoresOriginal(t *testing.T) {
	p := New(1, TypeHeap)
	filler := bytes.Repeat([]byte("f"), 4000)
	if _, err := p.Insert(filler); err != nil {
		t.Fatal(err)
	}
	s, err := p.Insert([]byte("victim"))
	if err != nil {
		t.Fatal(err)
	}
	huge := bytes.Repeat([]byte("h"), 5000)
	if err := p.Update(s, huge); !errors.Is(err, ErrPageFull) {
		t.Fatalf("err = %v, want ErrPageFull", err)
	}
	if got, _ := p.Read(s); string(got) != "victim" {
		t.Fatalf("original record not restored: %q", got)
	}
}

func TestInsertUntilFull(t *testing.T) {
	p := New(1, TypeHeap)
	rec := bytes.Repeat([]byte("r"), 100)
	n := 0
	for {
		_, err := p.Insert(rec)
		if errors.Is(err, ErrPageFull) {
			break
		}
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		n++
		if n > Size {
			t.Fatal("page never filled")
		}
	}
	// 100B + 4B slot per record out of ~8150 usable.
	if n < 70 || n > 82 {
		t.Errorf("fit %d 100-byte records; expected ~78", n)
	}
	if p.FreeSpace() >= 104 {
		t.Errorf("page claims %d free after fill", p.FreeSpace())
	}
}

func TestRecordTooBig(t *testing.T) {
	p := New(1, TypeHeap)
	if _, err := p.Insert(make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrRecordTooBig) {
		t.Fatalf("err = %v, want ErrRecordTooBig", err)
	}
	if _, err := p.Insert(make([]byte, MaxRecordSize)); err != nil {
		t.Fatalf("max-size insert failed: %v", err)
	}
}

func TestChecksumRoundTrip(t *testing.T) {
	p := New(3, TypeHeap)
	p.Insert([]byte("payload"))
	p.SetLSN(123)
	p.Seal()
	if err := p.Verify(); err != nil {
		t.Fatalf("Verify after Seal: %v", err)
	}
	// Corrupt one byte and verify detection.
	p.Bytes()[HeaderSize+100] ^= 0xFF
	if err := p.Verify(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted page verified: %v", err)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	p := New(9, TypeBTreeLeaf)
	p.Insert([]byte("k1v1"))
	p.Seal()
	img := append([]byte(nil), p.Bytes()...)

	q := &Page{}
	if err := q.Load(img); err != nil {
		t.Fatal(err)
	}
	if err := q.Verify(); err != nil {
		t.Fatal(err)
	}
	if q.ID() != 9 || q.Type() != TypeBTreeLeaf || q.LiveCount() != 1 {
		t.Fatal("loaded page header mismatch")
	}
	if err := q.Load(img[:100]); err == nil {
		t.Fatal("Load accepted short buffer")
	}
}

func TestReadBadSlots(t *testing.T) {
	p := New(1, TypeHeap)
	if _, err := p.Read(-1); !errors.Is(err, ErrBadSlot) {
		t.Error("Read(-1) should fail")
	}
	if _, err := p.Read(0); !errors.Is(err, ErrBadSlot) {
		t.Error("Read past slot count should fail")
	}
	if err := p.Delete(0); !errors.Is(err, ErrBadSlot) {
		t.Error("Delete past slot count should fail")
	}
	if err := p.Update(5, []byte("x")); !errors.Is(err, ErrBadSlot) {
		t.Error("Update past slot count should fail")
	}
}

func TestLiveRecordsIterationAndEarlyStop(t *testing.T) {
	p := New(1, TypeHeap)
	for i := 0; i < 5; i++ {
		p.Insert([]byte{byte('a' + i)})
	}
	p.Delete(2)
	var seen []byte
	p.LiveRecords(func(slot int, rec []byte) bool {
		seen = append(seen, rec[0])
		return true
	})
	if string(seen) != "abde" {
		t.Fatalf("LiveRecords order = %q, want abde", seen)
	}
	count := 0
	p.LiveRecords(func(slot int, rec []byte) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop visited %d records", count)
	}
}

// Property: any sequence of inserts/deletes/updates on a page agrees
// with a map-based reference model.
func TestPageAgainstReferenceModel(t *testing.T) {
	src := rng.New(99)
	p := New(1, TypeHeap)
	ref := map[int][]byte{} // slot -> record
	for op := 0; op < 20000; op++ {
		switch src.Intn(4) {
		case 0, 1: // insert
			rec := make([]byte, src.IntRange(1, 300))
			src.Bytes(rec)
			s, err := p.Insert(rec)
			if errors.Is(err, ErrPageFull) {
				continue
			}
			if err != nil {
				t.Fatalf("op %d Insert: %v", op, err)
			}
			if _, exists := ref[s]; exists {
				t.Fatalf("op %d: slot %d double-allocated", op, s)
			}
			ref[s] = rec
		case 2: // delete a random live slot
			for s := range ref {
				if err := p.Delete(s); err != nil {
					t.Fatalf("op %d Delete(%d): %v", op, s, err)
				}
				delete(ref, s)
				break
			}
		case 3: // update a random live slot
			for s := range ref {
				rec := make([]byte, src.IntRange(1, 300))
				src.Bytes(rec)
				err := p.Update(s, rec)
				if errors.Is(err, ErrPageFull) {
					break
				}
				if err != nil {
					t.Fatalf("op %d Update(%d): %v", op, s, err)
				}
				ref[s] = rec
				break
			}
		}
		if op%1000 == 0 {
			p.Compact()
		}
	}
	if p.LiveCount() != len(ref) {
		t.Fatalf("LiveCount = %d, ref has %d", p.LiveCount(), len(ref))
	}
	for s, want := range ref {
		got, err := p.Read(s)
		if err != nil {
			t.Fatalf("Read(%d): %v", s, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("slot %d mismatch", s)
		}
	}
}

func TestSealVerifyQuick(t *testing.T) {
	f := func(id uint64, lsn uint64, payload []byte) bool {
		if len(payload) > MaxRecordSize {
			payload = payload[:MaxRecordSize]
		}
		p := New(ID(id), TypeHeap)
		p.SetLSN(lsn)
		if len(payload) > 0 {
			p.Insert(payload)
		}
		p.Seal()
		return p.Verify() == nil && p.LSN() == lsn && p.ID() == ID(id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TypeFree: "free", TypeMeta: "meta", TypeHeap: "heap",
		TypeBTreeLeaf: "btree-leaf", TypeBTreeInner: "btree-inner",
	}
	for typ, want := range cases {
		if typ.String() != want {
			t.Errorf("%d.String() = %q want %q", typ, typ.String(), want)
		}
	}
	if Type(200).String() != "type(200)" {
		t.Error("unknown type string")
	}
}

func BenchmarkInsert100B(b *testing.B) {
	rec := bytes.Repeat([]byte("r"), 100)
	p := New(1, TypeHeap)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Insert(rec); err != nil {
			p.Format(1, TypeHeap)
		}
	}
}

func BenchmarkSeal(b *testing.B) {
	p := New(1, TypeHeap)
	p.Insert(bytes.Repeat([]byte("x"), 1000))
	b.SetBytes(Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seal()
	}
}

// A page whose checksum word is zero verifies only when the whole page
// is zero (allocated, never written): a written page with its checksum
// word cleared must not reach the slot accessors, whatever its slot
// directory says.
func TestVerifyZeroChecksumOnlyOnZeroPage(t *testing.T) {
	var zero Page
	if err := zero.Verify(); err != nil {
		t.Fatalf("all-zero page: %v", err)
	}
	p := New(5, TypeHeap)
	if _, err := p.Insert([]byte("row")); err != nil {
		t.Fatal(err)
	}
	p.Seal()
	binary.LittleEndian.PutUint32(p.Bytes()[32:36], 0)
	binary.LittleEndian.PutUint16(p.Bytes()[HeaderSize+2:], 0xffff) // slot 0's length
	if err := p.Verify(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("written page with a zero checksum word: Verify = %v, want ErrChecksum", err)
	}
}

// A page sealed with a damaged slot directory verifies; its accessors
// refuse the damage with ErrBadSlot instead of panicking.
func TestDamagedSlotDirectoryIsBadSlot(t *testing.T) {
	put := func(b []byte, at, v int) { binary.LittleEndian.PutUint16(b[at:], uint16(v)) }
	damage := map[string]func(b []byte){
		"length past the page":       func(b []byte) { put(b, HeaderSize+2, 0xffff) },
		"offset in the header":       func(b []byte) { put(b, HeaderSize, 8) },
		"slot count past the heap":   func(b []byte) { put(b, 18, 0xffff) },
		"free pointer past the page": func(b []byte) { put(b, 20, Size+1) },
		"overlapping records": func(b []byte) { // slots 1 and 2 both claim the whole heap
			free := int(binary.LittleEndian.Uint16(b[20:]))
			for _, so := range []int{HeaderSize + 4, HeaderSize + 8} {
				put(b, so, free)
				put(b, so+2, Size-free)
			}
		},
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			p := New(5, TypeHeap)
			for _, r := range []string{"first", "second", "third"} {
				if _, err := p.Insert([]byte(r)); err != nil {
					t.Fatal(err)
				}
			}
			hurt(p.Bytes())
			p.Seal()
			if err := p.Verify(); err != nil {
				t.Fatalf("sealed page: %v", err)
			}
			if err := p.Compact(); !errors.Is(err, ErrBadSlot) {
				t.Errorf("Compact = %v, want ErrBadSlot", err)
			}
			// Reads and writes refuse what they cannot do safely and never
			// panic.
			for i := 0; i < 3; i++ {
				if _, err := p.Read(i); err != nil && !errors.Is(err, ErrBadSlot) {
					t.Errorf("Read(%d): %v", i, err)
				}
			}
			p.LiveRecords(func(int, []byte) bool { return true })
			p.LiveCount()
			p.FreeSpace()
			for i := 0; i < 3; i++ {
				p.Update(i, make([]byte, 100))
				p.Delete(i)
			}
			p.Insert([]byte("z"))
		})
	}
}
