package page

import (
	"bytes"
	"encoding/binary"
	"testing"

	"hydra/internal/rng"
)

// validPage fills a heap page from seed with random inserts, deletes
// and updates: a page as the heap leaves it.
func validPage(seed uint64) *Page {
	src := rng.New(seed)
	p := New(ID(src.Intn(1000)), TypeHeap)
	p.SetLSN(src.Uint64())
	for n := src.IntRange(0, 120); n > 0; n-- {
		rec := make([]byte, src.IntRange(0, 300))
		src.Bytes(rec)
		switch slots := p.SlotCount(); {
		case slots > 0 && src.Bool(0.2):
			p.Delete(src.Intn(slots))
		case slots > 0 && src.Bool(0.2):
			p.Update(src.Intn(slots), rec)
		default:
			p.Insert(rec)
		}
	}
	return p
}

// exercise runs every accessor over p. On a page whose directory is
// sound it also holds Compact to keeping every live record.
func exercise(t *testing.T, p *Page) {
	live := map[int][]byte{}
	err := p.LiveRecords(func(slot int, rec []byte) bool {
		live[slot] = append([]byte(nil), rec...)
		return true
	})
	for i := -1; i <= p.SlotCount(); i++ {
		p.Read(i)
	}
	p.LiveCount()
	p.FreeSpace()
	if err == nil && p.Compact() == nil {
		for slot, want := range live {
			if got, rerr := p.Read(slot); rerr != nil || !bytes.Equal(got, want) {
				t.Fatalf("slot %d after Compact: %d bytes, %v; want %d bytes", slot, len(got), rerr, len(want))
			}
		}
	}
	p.Insert([]byte("fuzz"))
	for i := 0; i < min(p.SlotCount(), 8); i++ {
		p.Update(i, make([]byte, 16<<i))
		p.Delete(i)
	}
	p.Compact()
}

// FuzzPage holds the page codec to its contract on any 8 KiB image:
// raw bytes the fuzzer writes over a zero page, or a valid heap page
// from seed, with flips applied either way. Load then Verify; if the
// checksum is accepted, no accessor may panic. The image sealed as it
// is must verify and round-trip byte for byte, and its accessors must
// not panic either, whatever its slot directory says.
func FuzzPage(f *testing.F) {
	f.Add(uint64(1), []byte{}, []byte{})
	f.Add(uint64(2), []byte{0, 18, 0xff, 0, 42, 0x40}, []byte{})
	f.Add(uint64(3), []byte{0, 32, 0x01}, []byte{})
	// A sealed page with its checksum word zeroed and slot 0's length
	// set to 0xffff: Verify accepted it once, and Read(0) panicked.
	bad := validPage(4)
	bad.Insert([]byte("row"))
	bad.Seal()
	binary.LittleEndian.PutUint32(bad.Bytes()[32:36], 0)
	binary.LittleEndian.PutUint16(bad.Bytes()[HeaderSize+2:], 0xffff)
	f.Add(uint64(0), []byte{}, append([]byte(nil), bad.Bytes()...))
	f.Fuzz(func(t *testing.T, seed uint64, flips, raw []byte) {
		img := make([]byte, Size)
		if len(raw) > 0 {
			copy(img, raw)
		} else {
			copy(img, validPageSealed(seed))
		}
		for i := 0; i+2 < len(flips); i += 3 {
			img[int(binary.BigEndian.Uint16(flips[i:]))%Size] ^= flips[i+2]
		}
		var p Page
		if err := p.Load(img); err != nil {
			t.Fatal(err)
		}
		if p.Verify() == nil {
			exercise(t, &p)
		}
		var q Page
		q.Load(img)
		q.Seal()
		var r Page
		if err := r.Load(q.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := r.Verify(); err != nil {
			t.Fatalf("sealed image does not verify: %v", err)
		}
		if !bytes.Equal(r.Bytes()[:32], img[:32]) || !bytes.Equal(r.Bytes()[36:], img[36:]) {
			t.Fatal("sealing changed more than the checksum word")
		}
		exercise(t, &r)
	})
}

// validPageSealed is validPage(seed)'s sealed image.
func validPageSealed(seed uint64) []byte {
	p := validPage(seed)
	p.Seal()
	return p.Bytes()
}
