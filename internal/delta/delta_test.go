package delta

import (
	"reflect"
	"testing"
)

func TestEpochVisibility(t *testing.T) {
	d := NewTable("t", 4, []string{"a", "b"})

	// Epoch 1: insert two tail rows.
	ids, err := d.Insert(1, [][]int64{{10, 11}, {20, 21}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{4, 5}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("insert rowids = %v, want %v", ids, want)
	}
	// Epoch 2: delete base row 1 and tail row 5.
	if n := d.Delete(2, []int64{1, 5}); n != 2 {
		t.Fatalf("delete marked %d rows, want 2", n)
	}

	// A reader at epoch 0 sees the base table untouched.
	if ov := d.OverlayAt(0); ov != nil {
		t.Fatalf("epoch 0 overlay = %+v, want nil", ov)
	}
	// Epoch 1 sees both tail rows, no deletes.
	ov := d.OverlayAt(1)
	if ov == nil || ov.NumTail() != 2 || ov.NumDeleted() != 0 {
		t.Fatalf("epoch 1 overlay = %+v, want 2 tail rows, 0 deletes", ov)
	}
	if !reflect.DeepEqual(ov.TailCols["a"], []int64{10, 11}) {
		t.Fatalf("epoch 1 tail a = %v", ov.TailCols["a"])
	}
	// Epoch 2 sees one tail row and one base delete.
	ov = d.OverlayAt(2)
	if ov.NumTail() != 1 || ov.NumDeleted() != 1 || !ov.BaseDeleted(1) {
		t.Fatalf("epoch 2 overlay = %+v", ov)
	}
	if ov.DeleteOnly() {
		t.Fatal("epoch 2 overlay claims delete-only with a visible tail row")
	}
	if dead := ov.DeletedBase; dead.Len() != 4 || dead.Count() != 1 || !dead.Get(1) {
		t.Fatalf("epoch 2 deleted base = %v", dead.Rows())
	}

	// Re-deleting a dead row is a no-op.
	if n := d.Delete(3, []int64{1, 5}); n != 0 {
		t.Fatalf("re-delete marked %d rows, want 0", n)
	}
}

func TestUpdateSingleEpoch(t *testing.T) {
	d := NewTable("t", 2, []string{"a"})
	del, ins, err := d.Update(5, []int64{0}, [][]int64{{42}})
	if err != nil || del != 1 || len(ins) != 1 {
		t.Fatalf("update = (%d, %v, %v)", del, ins, err)
	}
	// Before the update's epoch: old row visible, no tail.
	if ov := d.OverlayAt(4); ov != nil {
		t.Fatalf("epoch 4 overlay = %+v, want nil", ov)
	}
	// At the update's epoch: old row gone, new row visible — never both,
	// never neither.
	ov := d.OverlayAt(5)
	if !ov.BaseDeleted(0) || ov.NumTail() != 1 || ov.TailCols["a"][0] != 42 {
		t.Fatalf("epoch 5 overlay = %+v", ov)
	}
}

func TestDrainResets(t *testing.T) {
	d := NewTable("t", 3, []string{"a"})
	d.Insert(1, [][]int64{{7}})
	d.Delete(1, []int64{0})
	ov := d.Drain(1, 3) // 3 - 1 deleted + 1 tail
	if ov == nil || ov.NumTail() != 1 || ov.NumDeleted() != 1 {
		t.Fatalf("drain overlay = %+v", ov)
	}
	if d.Dirty() {
		t.Fatal("delta still dirty after drain")
	}
	if d.BaseRows() != 3 {
		t.Fatalf("base rows = %d after drain, want 3", d.BaseRows())
	}
	if ov2 := d.OverlayAt(99); ov2 != nil {
		t.Fatalf("post-drain overlay = %+v, want nil", ov2)
	}
}

// An overlay is a snapshot: what it shows does not move when the delta
// takes a later insert, delete or drain, whether its tail was shared with
// the delta (every inserted row visible) or copied (a tail row deleted).
func TestOverlayIsStable(t *testing.T) {
	for _, tc := range []struct {
		name   string
		epoch  uint64
		prefix bool // the visible tail rows are the tail's first rows
	}{{"shared", 1, true}, {"copied", 2, false}} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewTable("t", 3, []string{"a", "b"})
			if _, err := d.Insert(1, [][]int64{{10, 11, 12}, {20, 21, 22}}); err != nil {
				t.Fatal(err)
			}
			d.Delete(2, []int64{0, 3})
			ov := d.OverlayAt(tc.epoch)
			want := map[string][]int64{"a": {10, 11, 12}, "b": {20, 21, 22}}
			if !tc.prefix {
				want = map[string][]int64{"a": {11, 12}, "b": {21, 22}}
			}
			check := func(after string) {
				t.Helper()
				if !reflect.DeepEqual(ov.TailCols, want) {
					t.Fatalf("after %s: tail = %v, want %v", after, ov.TailCols, want)
				}
			}
			check("the snapshot")
			if _, err := d.Insert(3, [][]int64{{13, 14}, {23, 24}}); err != nil {
				t.Fatal(err)
			}
			check("an insert")
			d.Delete(4, []int64{4, 5})
			check("a delete")
			d.Drain(4, 5)
			if _, err := d.Insert(5, [][]int64{{-1, -2, -3, -4}, {-1, -2, -3, -4}}); err != nil {
				t.Fatal(err)
			}
			check("a drain and an insert")
		})
	}
}

func TestWALRoundTrip(t *testing.T) {
	recs := []Record{
		{Op: OpInsert, Epoch: 3, Cols: 2, Vals: []int64{1, 2, 3, 4}},
		{Op: OpDelete, Epoch: 4, Vals: []int64{0, 7}},
		{Op: OpInsert, Epoch: 5, Cols: 1, Vals: nil},
	}
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	got, err := DecodeRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Op != recs[i].Op || got[i].Epoch != recs[i].Epoch || got[i].Cols != recs[i].Cols {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
		if len(got[i].Vals) != len(recs[i].Vals) {
			t.Fatalf("record %d has %d vals, want %d", i, len(got[i].Vals), len(recs[i].Vals))
		}
		for j := range recs[i].Vals {
			if got[i].Vals[j] != recs[i].Vals[j] {
				t.Fatalf("record %d val %d = %d, want %d", i, j, got[i].Vals[j], recs[i].Vals[j])
			}
		}
	}
}

func TestWALRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{0x00}, // unknown op, truncated header
		AppendRecord(nil, Record{Op: 9, Epoch: 1})[:17],                                   // unknown op
		AppendRecord(nil, Record{Op: OpInsert, Epoch: 1, Cols: 1, Vals: []int64{1}})[:20], // truncated payload
	}
	for i, c := range cases {
		if _, err := DecodeRecords(c); err == nil {
			t.Errorf("case %d: DecodeRecords accepted malformed input", i)
		}
	}
}
