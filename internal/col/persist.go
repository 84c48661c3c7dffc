package col

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"aquoman/internal/enc"
	"aquoman/internal/flash"
)

// manifest is the on-disk catalog.
type manifest struct {
	Version int             `json:"version"`
	Tables  []manifestTable `json:"tables"`
}

type manifestTable struct {
	Name    string        `json:"name"`
	NumRows int           `json:"num_rows"`
	Cols    []manifestCol `json:"cols"`
}

type manifestCol struct {
	Name    string       `json:"name"`
	Typ     uint8        `json:"typ"`
	HasHeap bool         `json:"has_heap"`
	Sorted  bool         `json:"sorted"`
	Unique  bool         `json:"unique"`
	Enc     *manifestEnc `json:"enc,omitempty"`
}

// manifestEnc is the encoded-column directory: codec, the value
// dictionary (dictionary codec only), and the per-page zone maps.
type manifestEnc struct {
	Codec uint8          `json:"codec"`
	Dict  []int64        `json:"dict,omitempty"`
	Pages []manifestPage `json:"pages"`
}

type manifestPage struct {
	Start int   `json:"start"`
	Count int   `json:"count"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

const manifestName = "catalog.json"

// SaveStore persists the catalog and every column/heap file under dir,
// creating it if needed. The layout mirrors the flash namespace:
// dir/<table>/<column>.dat and .heap, plus dir/catalog.json.
func SaveStore(s *Store, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var m manifest
	m.Version = 1 // bumped to 2 below if any column is encoded
	s.mu.Lock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	s.mu.Unlock()
	sortStringsInPlace(names)
	for _, name := range names {
		t, err := s.Table(name)
		if err != nil {
			return err
		}
		mt := manifestTable{Name: t.Name, NumRows: t.NumRows}
		for _, def := range t.Cols {
			ci := t.cols[def.Name]
			mc := manifestCol{Name: def.Name, Typ: uint8(def.Typ),
				HasHeap: ci.Heap != nil, Sorted: ci.Sorted, Unique: ci.Unique}
			if ci.Enc != nil {
				me := &manifestEnc{Codec: uint8(ci.Enc.Codec), Dict: ci.Enc.Dict}
				for _, pm := range ci.Enc.Pages {
					me.Pages = append(me.Pages,
						manifestPage{Start: pm.StartRow, Count: pm.Count, Min: pm.Min, Max: pm.Max})
				}
				mc.Enc = me
				m.Version = 2 // v1 readers must not misread encoded pages as raw
			}
			mt.Cols = append(mt.Cols, mc)
			if err := dumpFile(ci.File, filepath.Join(dir, t.Name, def.Name+".dat")); err != nil {
				return err
			}
			if ci.Heap != nil {
				if err := dumpFile(ci.Heap, filepath.Join(dir, t.Name, def.Name+".heap")); err != nil {
					return err
				}
			}
		}
		m.Tables = append(m.Tables, mt)
	}
	buf, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, manifestName), buf, 0o644)
}

func dumpFile(f *flash.File, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf := make([]byte, f.Size())
	if _, err := f.ReadAt(buf, 0, flash.Host); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// LoadStore reads a persisted store into a fresh flash device.
func LoadStore(dir string, dev *flash.Device) (*Store, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("col: load store: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("col: corrupt catalog: %w", err)
	}
	if m.Version != 1 && m.Version != 2 {
		return nil, fmt.Errorf("col: unsupported catalog version %d", m.Version)
	}
	s := NewStore(dev)
	for _, mt := range m.Tables {
		t := &Table{
			Schema:  Schema{Name: mt.Name},
			NumRows: mt.NumRows,
			store:   s,
			cols:    make(map[string]*ColumnInfo),
		}
		for _, mc := range mt.Cols {
			def := ColDef{Name: mc.Name, Typ: Type(mc.Typ)}
			t.Cols = append(t.Cols, def)
			ci := &ColumnInfo{Def: def, numRows: mt.NumRows,
				Sorted: mc.Sorted, Unique: mc.Unique}
			if mc.Enc != nil {
				em := &enc.ColumnMeta{Codec: enc.Codec(mc.Enc.Codec), Dict: mc.Enc.Dict}
				for _, mp := range mc.Enc.Pages {
					em.Pages = append(em.Pages,
						enc.PageMeta{StartRow: mp.Start, Count: mp.Count, Min: mp.Min, Max: mp.Max})
				}
				if em.NumRows() != mt.NumRows {
					return nil, fmt.Errorf("col: table %s column %s: encoding covers %d rows, table has %d",
						mt.Name, mc.Name, em.NumRows(), mt.NumRows)
				}
				ci.Enc = em
			}
			base := mt.Name + "/" + mc.Name
			ci.File = dev.Create(base + ".dat")
			if err := slurpFile(ci.File, filepath.Join(dir, mt.Name, mc.Name+".dat")); err != nil {
				return nil, err
			}
			if mc.HasHeap {
				ci.Heap = dev.Create(base + ".heap")
				if err := slurpFile(ci.Heap, filepath.Join(dir, mt.Name, mc.Name+".heap")); err != nil {
					return nil, err
				}
				if def.Typ == Dict {
					dict, err := readDict(ci)
					if err != nil {
						return nil, fmt.Errorf("col: table %s column %s: %w", mt.Name, mc.Name, err)
					}
					ci.dict = dict
				}
			}
			t.cols[def.Name] = ci
		}
		s.mu.Lock()
		s.tables[t.Name] = t
		s.mu.Unlock()
	}
	dev.ResetStats() // loading traffic is not part of any experiment
	return s, nil
}

func slurpFile(f *flash.File, path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	f.Append(buf, flash.Host)
	return nil
}

func sortStringsInPlace(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
