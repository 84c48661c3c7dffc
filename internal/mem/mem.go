// Package mem implements AQUOMAN's DRAM management (Sec. VI-D). The
// accelerator's DRAM holds the intermediate tables produced by Table
// Tasks: sorted (join-key, RowID) tables feeding SORT_MERGE operators and
// the RowID sets (back-pointers) that survive for the lifetime of a
// multi-way join. Intermediates consumed by a subsequent task are garbage
// collected immediately; capacity pressure raises ErrCapacity, which the
// core turns into a suspension (hand-off to the host, Sec. VI-E
// condition 4).
package mem

import (
	"errors"
	"fmt"
	"sync"

	"aquoman/internal/bitvec"
	"aquoman/internal/sorter"
)

// Capacity presets from Table VI.
const (
	// DefaultCapacity is the 40 GB AQUOMAN configuration.
	DefaultCapacity = 40 << 30
	// SmallCapacity is the 16 GB AQUOMAN16 configuration.
	SmallCapacity = 16 << 30
)

// ErrCapacity reports that an allocation would exceed the DRAM capacity.
var ErrCapacity = errors.New("mem: AQUOMAN DRAM capacity exceeded")

// Kind tags what an intermediate object holds.
type Kind int

const (
	// KindKV is a sorted (key, RowID) table.
	KindKV Kind = iota
	// KindMask is a row-selection bit vector over a base table.
	KindMask
	// KindColumn is a cached column image (small dimension attributes).
	KindColumn
)

// Object is one DRAM-resident intermediate.
type Object struct {
	Name  string
	Kind  Kind
	Bytes int64

	// Exactly one of the payloads is set, matching Kind.
	KVs  []sorter.KV
	Mask *bitvec.Mask
	Col  []int64
}

// DRAM is the accelerator memory. The functional payloads are real; Bytes
// models the footprint the hardware would use (row indices and join keys
// only, per Sec. VI-D).
type DRAM struct {
	capacity int64

	mu      sync.Mutex
	used    int64
	peak    int64
	objects map[string]*Object
}

// New returns a DRAM with the given capacity in bytes (0 means
// DefaultCapacity).
func New(capacity int64) *DRAM {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &DRAM{capacity: capacity, objects: make(map[string]*Object)}
}

// Peak returns the high-water footprint in bytes.
func (d *DRAM) Peak() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peak
}

// ResetPeak sets the high-water mark to the current usage.
func (d *DRAM) ResetPeak() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.peak = d.used
}

// put registers an object, enforcing capacity.
func (d *DRAM) put(o *Object) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if old, ok := d.objects[o.Name]; ok {
		return fmt.Errorf("mem: object %q already exists (%d bytes)", old.Name, old.Bytes)
	}
	if d.used+o.Bytes > d.capacity {
		return fmt.Errorf("%w: %q needs %d bytes, %d of %d in use",
			ErrCapacity, o.Name, o.Bytes, d.used, d.capacity)
	}
	d.objects[o.Name] = o
	d.used += o.Bytes
	if d.used > d.peak {
		d.peak = d.used
	}
	return nil
}

// PutKV stores a sorted (key, RowID) table. elemBytes is the hardware
// element width (8 for kv<u32,u32>, 16 for kv<u64,u64>).
func (d *DRAM) PutKV(name string, kvs []sorter.KV, elemBytes int64) (*Object, error) {
	o := &Object{Name: name, Kind: KindKV, KVs: kvs, Bytes: int64(len(kvs)) * elemBytes}
	if err := d.put(o); err != nil {
		return nil, err
	}
	return o, nil
}

// PutMask stores a row-selection mask (1 bit per base-table row).
func (d *DRAM) PutMask(name string, m *bitvec.Mask) (*Object, error) {
	o := &Object{Name: name, Kind: KindMask, Mask: m, Bytes: int64((m.Len() + 7) / 8)}
	if err := d.put(o); err != nil {
		return nil, err
	}
	return o, nil
}

// PutColumn caches a column image (4 bytes per value, the prototype's
// column width).
func (d *DRAM) PutColumn(name string, vals []int64) (*Object, error) {
	o := &Object{Name: name, Kind: KindColumn, Col: vals, Bytes: int64(len(vals)) * 4}
	if err := d.put(o); err != nil {
		return nil, err
	}
	return o, nil
}

// Get returns the named object.
func (d *DRAM) Get(name string) (*Object, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	o, ok := d.objects[name]
	if !ok {
		return nil, fmt.Errorf("mem: no object %q", name)
	}
	return o, nil
}

// Free garbage-collects an object (freeing a missing name is a no-op: the
// paper GCs sort intermediates "immediately" after their merge consumes
// them, and double-frees must be harmless on retry paths).
func (d *DRAM) Free(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if o, ok := d.objects[name]; ok {
		d.used -= o.Bytes
		delete(d.objects, name)
	}
}
