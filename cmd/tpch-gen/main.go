// Command tpch-gen generates a TPC-H data set into the simulated flash
// device and prints the storage layout — the column files AQUOMAN reads,
// including string heaps and the materialized FK RowID join indices.
package main

import (
	"flag"
	"fmt"
	"log"

	"aquoman"
)

func main() {
	log.SetFlags(0)
	var (
		sf   = flag.Float64("sf", 0.01, "scale factor (1.0 ≈ 1 GB)")
		seed = flag.Int64("seed", 42, "generator seed")
		out  = flag.String("out", "", "directory to persist the generated store into")
	)
	flag.Parse()

	db := aquoman.Open()
	if err := db.LoadTPCH(*sf, *seed); err != nil {
		log.Fatal(err)
	}
	// The write-path catalog adopts the generated tables, so the store is
	// DML-ready: DB.Catalog registers the schema's FK graph (tpch.FKEdges,
	// the registry Gen materialized join indices from) and the composite
	// partsupp index re-derivation, and DB.Save persists its epoch sidecar.
	dev, store := db.Flash, db.Store
	fmt.Printf("TPC-H SF %g generated (%.1f MB on flash), catalog epoch %d\n\n", *sf,
		float64(dev.TotalBytes())/1e6, db.Catalog().Epoch())
	fmt.Printf("%-10s %10s %8s %10s\n", "table", "rows", "cols", "MB")
	for _, name := range store.Tables() {
		t := store.MustTable(name)
		fmt.Printf("%-10s %10d %8d %10.2f\n", name, t.NumRows, len(t.Cols),
			float64(t.BytesOnFlash())/1e6)
	}
	if *out != "" {
		if err := db.Save(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nstore persisted to %s (load with aquoman-run -data %s)\n", *out, *out)
	}
	fmt.Println("\ncolumn files (first 12):")
	for i, f := range dev.Files() {
		if i >= 12 {
			fmt.Printf("  ... and %d more\n", len(dev.Files())-12)
			break
		}
		file, _ := dev.Open(f)
		fmt.Printf("  %-40s %8.2f MB\n", f, float64(file.Size())/1e6)
	}
}
