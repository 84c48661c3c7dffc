package col

import (
	"os"
	"path/filepath"
	"testing"

	"aquoman/internal/flash"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	s := testStore()
	tab := buildSample(t, s)
	if err := MaterializeFK(tab, "id", tab, "id"); err != nil {
		t.Fatal(err) // self-FK: every id maps to its own row
	}
	dir := t.TempDir()
	if err := SaveStore(s, dir); err != nil {
		t.Fatal(err)
	}
	// The manifest and column files exist on disk.
	if _, err := os.Stat(filepath.Join(dir, "catalog.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sales", "dept.heap")); err != nil {
		t.Fatal(err)
	}

	dev := flash.NewDevice()
	loaded, err := LoadStore(dir, dev)
	if err != nil {
		t.Fatal(err)
	}
	// Loading traffic must not pollute experiment stats.
	if dev.Stats().TotalPagesRead() != 0 || dev.Stats().PagesWritten[flash.Host] != 0 {
		t.Fatal("load left stats behind")
	}
	lt, err := loaded.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	if lt.NumRows != tab.NumRows || len(lt.Cols) != len(tab.Cols) {
		t.Fatalf("shape: %d/%d vs %d/%d", lt.NumRows, len(lt.Cols), tab.NumRows, len(tab.Cols))
	}
	// Values, dictionary, heap content, and order flags survive.
	for _, def := range tab.Cols {
		a := tab.MustColumn(def.Name).MustReadAll(flash.Host)
		b := lt.MustColumn(def.Name).MustReadAll(flash.Host)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("column %s row %d: %d vs %d", def.Name, i, a[i], b[i])
			}
		}
	}
	od := tab.MustColumn("dept")
	ld := lt.MustColumn("dept")
	if len(od.Dict()) != len(ld.Dict()) {
		t.Fatalf("dict sizes differ")
	}
	for i := range od.Dict() {
		if od.Dict()[i] != ld.Dict()[i] {
			t.Fatalf("dict[%d] = %q vs %q", i, od.Dict()[i], ld.Dict()[i])
		}
	}
	if got, err := ld.Str(1, flash.Host); err != nil || got != "shoes" {
		t.Fatalf("dict decode = %q, %v", got, err)
	}
	ln := lt.MustColumn("note")
	offs := ln.MustReadAll(flash.Host)
	if got, err := ln.Str(offs[0], flash.Host); err != nil || got != "note-shoes" {
		t.Fatalf("heap decode = %q, %v", got, err)
	}
	if !lt.MustColumn("id").Sorted || !lt.MustColumn("id").Unique {
		t.Fatal("order flags lost")
	}
	if !lt.MustColumn(RowIDColumnName("id")).Sorted {
		t.Fatal("rowid column flags lost")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadStore(t.TempDir(), flash.NewDevice()); err == nil {
		t.Fatal("missing catalog accepted")
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("{bad"), 0o644)
	if _, err := LoadStore(dir, flash.NewDevice()); err == nil {
		t.Fatal("corrupt catalog accepted")
	}
	os.WriteFile(filepath.Join(dir, "catalog.json"), []byte(`{"version":9}`), 0o644)
	if _, err := LoadStore(dir, flash.NewDevice()); err == nil {
		t.Fatal("future version accepted")
	}
}
