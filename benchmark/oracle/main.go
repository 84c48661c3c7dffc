// Command oracle computes the expected answers the end-to-end driver
// checks every response against. It regenerates the same TPC-H data the
// server under test generates (same -sf, same -seed) in its own process
// and answers
//
//   - the TPC-H queries named in the request with the internal/tpch
//     reference oracle (a separate, map-and-slice implementation that
//     shares no execution code with the offload path), and
//   - the sampled SQL statements with DB.QueryHostOnly (the host engine,
//     which the offloaded /query path must agree with).
//
// Rows are rendered exactly as the server's NDJSON emitter renders them,
// so the driver compares bodies byte for byte without importing any
// aquoman package itself. It is a package of its own, pinned only to the
// façade plus internal/tpch, internal/plan, internal/engine and
// internal/col, so that an API break in a leaf package takes down the
// ladder but not the answer checking.
//
//	oracle -sf 0.1 -seed 42 < request.json > expected.json
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"aquoman"
	"aquoman/internal/col"
	"aquoman/internal/engine"
	"aquoman/internal/flash"
	"aquoman/internal/plan"
	"aquoman/internal/tpch"
)

// request lists what the driver wants answered.
type request struct {
	TPCH []int    `json:"tpch"`
	SQL  []string `json:"sql"`
	// CloneRows asks for the first n lineitem rows as SQL literals, which
	// the driver clones into INSERT statements.
	CloneRows int `json:"clone_rows"`
}

// answer is one expected result: the column names, the row count, a
// SHA-256 over the NDJSON row lines, and the lines themselves when the
// result is small enough to print in a mismatch report.
type answer struct {
	Columns []string `json:"columns"`
	Rows    int      `json:"rows"`
	SHA     string   `json:"sha"`
	Lines   []string `json:"lines,omitempty"`
}

type response struct {
	TPCH         map[string]answer `json:"tpch"`
	SQL          map[string]answer `json:"sql"`
	LineitemRows int               `json:"lineitem_rows"`
	OrdersRows   int               `json:"orders_rows"`
	// MaxOrderKey bounds the key spaces the driver draws parameters from.
	MaxOrderKey int64 `json:"max_orderkey"`
	// CloneColumns/CloneLiterals are SQL literals of the first CloneRows
	// lineitem rows, column-major names and row-major values.
	CloneColumns  []string   `json:"clone_columns,omitempty"`
	CloneLiterals [][]string `json:"clone_literals,omitempty"`
}

// maxLines is the largest result whose rows travel verbatim.
const maxLines = 32

func main() {
	log.SetFlags(0)
	log.SetPrefix("oracle: ")
	sf := flag.Float64("sf", 0.1, "TPC-H scale factor (must match the server under test)")
	seed := flag.Int64("seed", 42, "generator seed (must match the server under test)")
	flag.Parse()

	var req request
	if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
		log.Fatalf("reading request: %v", err)
	}
	db := aquoman.Open()
	if err := db.LoadTPCH(*sf, *seed); err != nil {
		log.Fatalf("generating TPC-H: %v", err)
	}
	resp := response{TPCH: map[string]answer{}, SQL: map[string]answer{}}

	li, err := db.Store.Table("lineitem")
	if err != nil {
		log.Fatal(err)
	}
	ord, err := db.Store.Table("orders")
	if err != nil {
		log.Fatal(err)
	}
	resp.LineitemRows, resp.OrdersRows = li.NumRows, ord.NumRows
	okeys, err := ord.MustColumn("o_orderkey").ReadAll(flash.Host)
	if err != nil {
		log.Fatal(err)
	}
	for _, k := range okeys {
		if k > resp.MaxOrderKey {
			resp.MaxOrderKey = k
		}
	}

	if len(req.TPCH) > 0 {
		ref, err := tpch.NewOracle(db.Store)
		if err != nil {
			log.Fatalf("snapshotting the store for the reference oracle: %v", err)
		}
		for _, q := range req.TPCH {
			p, err := aquoman.TPCHQuery(q)
			if err != nil {
				log.Fatal(err)
			}
			if err := plan.Bind(p, db.Store); err != nil {
				log.Fatalf("binding q%d: %v", q, err)
			}
			b, err := ref.Run(p)
			if err != nil {
				log.Fatalf("reference oracle q%d: %v", q, err)
			}
			resp.TPCH[fmt.Sprint(q)] = render(b.Schema, b.Cols)
		}
	}
	for _, stmt := range req.SQL {
		res, err := db.QueryHostOnly(stmt)
		if err != nil {
			log.Fatalf("host-only %q: %v", stmt, err)
		}
		resp.SQL[stmt] = render(res.Batch.Schema, res.Batch.Cols)
	}
	if req.CloneRows > 0 {
		resp.CloneColumns, resp.CloneLiterals, err = cloneRows(li, req.CloneRows)
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(&resp); err != nil {
		log.Fatal(err)
	}
}

// render turns a result into what the server would stream for it: one
// JSON array per row, integers numeric, booleans true/false, everything
// else through the engine's display path (server.jsonValue's rule).
func render(schema plan.Schema, cols [][]int64) answer {
	a := answer{}
	for _, f := range schema {
		a.Columns = append(a.Columns, f.Name)
	}
	if len(cols) > 0 {
		a.Rows = len(cols[0])
	}
	h := sha256.New()
	row := make([]interface{}, len(schema))
	for r := 0; r < a.Rows; r++ {
		for c, f := range schema {
			v := cols[c][r]
			switch f.Typ {
			case col.Int64, col.Int32:
				row[c] = v
			case col.Bool:
				row[c] = v != 0
			default:
				row[c] = engine.RenderValue(f, v)
			}
		}
		line, err := json.Marshal(row)
		if err != nil {
			log.Fatal(err)
		}
		h.Write(line)
		h.Write([]byte{'\n'})
		if a.Rows <= maxLines {
			a.Lines = append(a.Lines, string(line))
		}
	}
	a.SHA = hex.EncodeToString(h.Sum(nil))
	return a
}

// cloneRows renders the first n lineitem rows as SQL literals, so the
// driver can build INSERT statements whose foreign keys all resolve.
func cloneRows(li *col.Table, n int) ([]string, [][]string, error) {
	if n > li.NumRows {
		n = li.NumRows
	}
	var names []string
	var vals [][]int64
	var infos []*col.ColumnInfo
	for _, def := range li.Cols {
		if def.Typ == col.RowID {
			continue
		}
		ci, err := li.Column(def.Name)
		if err != nil {
			return nil, nil, err
		}
		v := make([]int64, n)
		if _, err := ci.ReadRange(0, n, flash.Host, v); err != nil {
			return nil, nil, err
		}
		names, vals, infos = append(names, def.Name), append(vals, v), append(infos, ci)
	}
	rows := make([][]string, n)
	for r := range rows {
		rows[r] = make([]string, len(names))
		for c, ci := range infos {
			lit, err := literal(ci, vals[c][r])
			if err != nil {
				return nil, nil, err
			}
			rows[r][c] = lit
		}
	}
	return names, rows, nil
}

func literal(ci *col.ColumnInfo, v int64) (string, error) {
	switch ci.Def.Typ {
	case col.Date:
		return "DATE '" + col.DateString(v) + "'", nil
	case col.Decimal:
		return col.FormatValue(col.Decimal, v), nil
	case col.Dict, col.Text:
		s, err := ci.Str(v, flash.Host)
		if err != nil {
			return "", err
		}
		return "'" + strings.ReplaceAll(s, "'", "''") + "'", nil
	default:
		return fmt.Sprint(v), nil
	}
}
