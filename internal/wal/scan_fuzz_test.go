package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"hydra/internal/rng"
)

// validLog encodes 1 to 20 records of random type, transaction and
// payload (0 to 300 bytes) back to back: a log image as New leaves it.
func validLog(seed uint64) []byte {
	src := rng.New(seed)
	var img []byte
	for n := src.IntRange(1, 20); n > 0; n-- {
		payload := make([]byte, src.IntRange(0, 300))
		src.Bytes(payload)
		r := Record{Type: RecType(src.IntRange(1, 8)), TxnID: src.Uint64(), PrevLSN: LSN(src.Uint64()), Payload: payload}
		buf := make([]byte, EncodedSize(len(payload)))
		if _, err := Encode(&r, buf); err != nil {
			panic(err)
		}
		img = append(img, buf...)
	}
	return img
}

// firstRecord returns the first offset of img at or after from where a
// record decodes, or -1.
func firstRecord(img []byte, from int) int {
	for q := from; q < len(img); q++ {
		if _, _, err := Decode(img[q:]); err == nil {
			return q
		}
	}
	return -1
}

// FuzzScanner damages a valid log of random-size records — flipped
// bytes, a zeroed run, a cut — and holds the scanner to its contract on
// what is left: it never panics; every record it returns decodes at its
// LSN, and they follow one another; Pos never passes the device's size;
// where it stops on a record that fails its checks, it reports
// ErrCorrupt exactly when a valid record follows (otherwise that record
// is a torn tail); and SeekRecord, from any offset, lands on a record
// that decodes, the first there is.
func FuzzScanner(f *testing.F) {
	const whole = 0xffff // a cut beyond the image: none
	f.Add(uint64(1), []byte{}, uint16(0), uint16(0), uint16(whole), uint16(0))
	f.Add(uint64(2), []byte{0, 50, 0x10}, uint16(0), uint16(0), uint16(whole), uint16(7))
	f.Add(uint64(3), []byte{}, uint16(200), uint16(30), uint16(whole), uint16(1))
	f.Add(uint64(4), []byte{}, uint16(0), uint16(0), uint16(300), uint16(0))
	f.Add(uint64(5), []byte{0, 0, 0xff, 1, 10, 0x01}, uint16(600), uint16(4), uint16(900), uint16(400))
	last := len(validLog(6)) - 1 // a flipped last byte: the last record fails its CRC, a torn tail
	f.Add(uint64(6), []byte{byte(last >> 8), byte(last), 0x80}, uint16(0), uint16(0), uint16(whole), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, flips []byte, zeroAt, zeroLen, cut, from uint16) {
		img := validLog(seed)
		for i := 0; i+2 < len(flips); i += 3 {
			img[int(binary.BigEndian.Uint16(flips[i:]))%len(img)] ^= flips[i+2]
		}
		if at := int(zeroAt) % len(img); zeroLen > 0 {
			clear(img[at:min(len(img), at+int(zeroLen)%512)])
		}
		if int(cut) < len(img) {
			img = img[:cut]
		}
		dev := NewMem()
		if _, err := dev.WriteAt(img, 0); err != nil {
			t.Fatal(err)
		}

		sc, err := NewScanner(dev, 0)
		if err != nil {
			t.Fatal(err)
		}
		for pos := 0; sc.Next(); {
			r := sc.Record()
			if int(r.LSN) != pos {
				t.Fatalf("record at %d, the previous one ended at %d", r.LSN, pos)
			}
			d, n, err := Decode(img[pos:])
			if err != nil {
				t.Fatalf("record returned at %d does not decode: %v", pos, err)
			}
			if d.Type != r.Type || d.TxnID != r.TxnID || d.PrevLSN != r.PrevLSN || !bytes.Equal(d.Payload, r.Payload) {
				t.Fatalf("record at %d is %+v, the bytes there decode as %+v", pos, r, d)
			}
			pos += n
			if int(sc.Pos()) != pos || pos > len(img) {
				t.Fatalf("Pos %d after a record ending at %d, device size %d", sc.Pos(), pos, len(img))
			}
		}
		stop := int(sc.Pos())
		if stop > len(img) {
			t.Fatalf("Pos %d past the device size %d", stop, len(img))
		}
		corrupt := errors.Is(sc.Err(), ErrCorrupt)
		if sc.Err() != nil && !corrupt {
			t.Fatalf("scan error that is not ErrCorrupt: %v", sc.Err())
		}
		// The stop is a clean end (zero length word) or a record cut short
		// by the end of the device, or else a record that fails its checks.
		bad := false
		if stop+headerSize <= len(img) {
			total := int(binary.LittleEndian.Uint32(img[stop:]))
			bad = total != 0 && (total < headerSize || total > headerSize+MaxPayload || total <= len(img)-stop)
		}
		if follows := bad && firstRecord(img, stop+1) >= 0; corrupt != follows {
			t.Fatalf("scan stopped at %d with err %v; a record that fails its checks: %v, a valid record after it: %v", stop, sc.Err(), bad, follows)
		}

		start := int(from) % (len(img) + 1)
		sc, err = NewScanner(dev, LSN(start))
		if err != nil {
			t.Fatal(err)
		}
		want := firstRecord(img, start)
		if !sc.SeekRecord() {
			if want >= 0 {
				t.Fatalf("SeekRecord from %d found nothing, but a record decodes at %d", start, want)
			}
			return
		}
		at := int(sc.Pos())
		if at != want {
			t.Fatalf("SeekRecord from %d landed at %d, the first record that decodes is at %d", start, at, want)
		}
		if !sc.Next() || int(sc.Record().LSN) != at {
			t.Fatalf("SeekRecord landed at %d, where Next reads no record (err %v)", at, sc.Err())
		}
	})
}
