package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"hydra/internal/heap"
	"hydra/internal/page"
)

func TestOpEncodeDecodeRoundTrip(t *testing.T) {
	r := OpRecord{
		Op:     OpUpdate,
		Table:  7,
		Key:    12345,
		RID:    heap.RID{Page: 42, Slot: 3},
		Before: []byte("before"),
		After:  []byte("after-image"),
	}
	got, err := decodeOp(encodeOp(nil, &r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != r.Op || got.Table != r.Table || got.Key != r.Key || got.RID != r.RID ||
		!bytes.Equal(got.Before, r.Before) || !bytes.Equal(got.After, r.After) {
		t.Fatalf("round trip: %+v != %+v", got, r)
	}
}

func TestOpEncodeDecodeQuick(t *testing.T) {
	f := func(op uint8, table uint32, key uint64, pg uint32, slot uint16, before, after []byte) bool {
		r := OpRecord{
			Op: Op(op%4 + 1), Table: table, Key: key,
			RID:    heap.RID{Page: page.ID(pg), Slot: slot},
			Before: before, After: after,
		}
		got, err := decodeOp(encodeOp(nil, &r))
		return err == nil && got.Key == key && got.RID == r.RID &&
			bytes.Equal(got.Before, before) && bytes.Equal(got.After, after)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeOpErrors(t *testing.T) {
	if _, err := decodeOp(nil); err == nil {
		t.Error("nil payload accepted")
	}
	if _, err := decodeOp(make([]byte, 10)); err == nil {
		t.Error("short payload accepted")
	}
	r := OpRecord{Op: OpInsert, After: []byte("xxxx")}
	enc := encodeOp(nil, &r)
	if _, err := decodeOp(enc[:len(enc)-2]); err == nil {
		t.Error("truncated after-image accepted")
	}
	// Truncate inside the before-image length prefix region.
	r2 := OpRecord{Op: OpUpdate, Before: []byte("aaaaaaaa"), After: []byte("b")}
	enc2 := encodeOp(nil, &r2)
	if _, err := decodeOp(enc2[:23]); err == nil {
		t.Error("truncated before-image accepted")
	}
}

func TestInverseOps(t *testing.T) {
	ins := OpRecord{Op: OpInsert, Table: 1, Key: 2, RID: heap.RID{Page: 3, Slot: 4}, After: []byte("row")}
	inv := ins.inverse()
	if inv.Op != OpDelete || inv.RID != ins.RID || !bytes.Equal(inv.Before, ins.After) {
		t.Fatalf("inverse(insert) = %+v", inv)
	}
	upd := OpRecord{Op: OpUpdate, Before: []byte("old"), After: []byte("new"), RID: ins.RID}
	invU := upd.inverse()
	if invU.Op != OpUpdate || !bytes.Equal(invU.After, []byte("old")) || !bytes.Equal(invU.Before, []byte("new")) {
		t.Fatalf("inverse(update) = %+v", invU)
	}
	del := OpRecord{Op: OpDelete, Before: []byte("gone"), RID: ins.RID}
	invD := del.inverse()
	if invD.Op != OpInsert || !bytes.Equal(invD.After, []byte("gone")) {
		t.Fatalf("inverse(delete) = %+v", invD)
	}
	// Double inverse is identity on the essentials.
	back := invU.inverse()
	if back.Op != OpUpdate || !bytes.Equal(back.After, upd.After) {
		t.Fatalf("double inverse: %+v", back)
	}
	ext := OpRecord{Op: OpExtend}
	if ext.inverse().Op != OpExtend {
		t.Fatal("extend must be redo-only")
	}
}

func TestRowRecordCodec(t *testing.T) {
	rec := rowRecord(99, []byte("value"))
	if rowKey(rec) != 99 {
		t.Fatalf("rowKey = %d", rowKey(rec))
	}
	if string(rowValue(rec)) != "value" {
		t.Fatalf("rowValue = %q", rowValue(rec))
	}
	// Empty value.
	empty := rowRecord(1, nil)
	if len(empty) != 8 || rowKey(empty) != 1 || len(rowValue(empty)) != 0 {
		t.Fatal("empty value codec broken")
	}
}

func TestOpString(t *testing.T) {
	if OpInsert.String() != "insert" || OpExtend.String() != "extend" {
		t.Fatal("Op.String mismatch")
	}
	if Op(99).String() != "op(99)" {
		t.Fatal("unknown op string")
	}
}

func TestCatalogCodecQuick(t *testing.T) {
	f := func(n uint8, seed uint64) bool {
		var metas []TableMeta
		for i := 0; i < int(n%20); i++ {
			metas = append(metas, TableMeta{
				ID:        uint32(i + 1),
				HeapFirst: page.ID(seed + uint64(i)),
				Name:      string(rune('a'+i%26)) + "_table",
			})
		}
		got, err := decodeCatalog(encodeCatalog(metas))
		if err != nil {
			return false
		}
		if len(got) != len(metas) {
			return false
		}
		for i := range metas {
			if got[i] != metas[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCatalogDecodeErrors(t *testing.T) {
	if _, err := decodeCatalog(nil); err == nil {
		t.Error("nil catalog accepted")
	}
	enc := encodeCatalog([]TableMeta{{ID: 1, HeapFirst: 2, Name: "users"}})
	if _, err := decodeCatalog(enc[:6]); err == nil {
		t.Error("truncated entry accepted")
	}
	if _, err := decodeCatalog(enc[:len(enc)-2]); err == nil {
		t.Error("truncated name accepted")
	}
}
