package mem

import (
	"errors"
	"testing"

	"aquoman/internal/bitvec"
	"aquoman/internal/sorter"
)

func TestPutGetFree(t *testing.T) {
	d := New(1 << 20)
	kvs := []sorter.KV{{Key: 1, Val: 10}, {Key: 2, Val: 20}}
	o, err := d.PutKV("j0", kvs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if o.Bytes != 16 {
		t.Fatalf("Bytes = %d", o.Bytes)
	}
	got, err := d.Get("j0")
	if err != nil || len(got.KVs) != 2 {
		t.Fatalf("Get: %v %v", got, err)
	}
	if d.Peak() != 16 {
		t.Fatalf("Peak = %d", d.Peak())
	}
	d.Free("j0")
	if d.ResetPeak(); d.Peak() != 0 {
		t.Fatalf("resident after Free = %d", d.Peak())
	}
	if _, err := d.Get("j0"); err == nil {
		t.Fatal("Get after Free succeeded")
	}
	d.Free("j0") // double free is a no-op
}

func TestCapacityEnforced(t *testing.T) {
	d := New(100)
	if _, err := d.PutKV("big", make([]sorter.KV, 20), 8); !errors.Is(err, ErrCapacity) {
		t.Fatalf("err = %v, want ErrCapacity", err)
	}
	if _, err := d.PutKV("ok", make([]sorter.KV, 10), 8); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PutKV("more", make([]sorter.KV, 5), 8); !errors.Is(err, ErrCapacity) {
		t.Fatalf("err = %v, want ErrCapacity", err)
	}
}

func TestDuplicateName(t *testing.T) {
	d := New(1 << 20)
	if _, err := d.PutMask("m", bitvec.New(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PutMask("m", bitvec.New(8)); err == nil {
		t.Fatal("duplicate Put succeeded")
	}
}

func TestPeakTracking(t *testing.T) {
	d := New(1 << 20)
	d.PutKV("a", make([]sorter.KV, 100), 8) // 800
	d.PutKV("b", make([]sorter.KV, 50), 8)  // 400
	d.Free("a")
	if d.Peak() != 1200 {
		t.Fatalf("Peak = %d, want 1200", d.Peak())
	}
	d.ResetPeak()
	if d.Peak() != 400 {
		t.Fatalf("Peak after reset = %d", d.Peak())
	}
}

func TestMaskAndColumnSizes(t *testing.T) {
	d := New(1 << 20)
	om, _ := d.PutMask("m", bitvec.New(1000))
	if om.Bytes != 125 {
		t.Fatalf("mask bytes = %d, want 125", om.Bytes)
	}
	oc, _ := d.PutColumn("c", make([]int64, 10))
	if oc.Bytes != 40 {
		t.Fatalf("column bytes = %d, want 40", oc.Bytes)
	}
}

func TestDefaults(t *testing.T) {
	// New(0) holds exactly DefaultCapacity bytes.
	d := New(0)
	if _, err := d.PutKV("over", make([]sorter.KV, 1), DefaultCapacity+1); !errors.Is(err, ErrCapacity) {
		t.Fatalf("err = %v, want ErrCapacity", err)
	}
	if _, err := d.PutKV("all", make([]sorter.KV, 1), DefaultCapacity); err != nil {
		t.Fatal(err)
	}
	if DefaultCapacity != 40<<30 || SmallCapacity != 16<<30 {
		t.Fatal("Table VI capacities wrong")
	}
}
