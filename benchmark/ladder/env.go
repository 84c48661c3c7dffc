package main

import (
	"fmt"
	"strings"

	"aquoman"
	"aquoman/internal/col"
	"aquoman/internal/compiler"
	"aquoman/internal/flash"
	"aquoman/internal/plan"
	"aquoman/internal/tabletask"
	"aquoman/internal/tpch"
)

// Statements the rungs share with the end-to-end driver's workloads.
const (
	pointSQL  = "select o_orderkey, o_custkey, o_totalprice, o_orderdate from orders where o_orderkey = 70023"
	exportSQL = "select l_orderkey, l_linenumber, l_quantity, l_extendedprice, l_shipdate from lineitem where l_quantity < 3"
	q6SQL     = "select sum(l_extendedprice * l_discount) as revenue from lineitem where l_shipdate >= date '1994-01-01' and l_shipdate < date '1994-01-01' + interval '1' year and l_discount between 0.05 and 0.07 and l_quantity < 24"
	q1SQL     = "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, sum(l_extendedprice) as sum_base_price, sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, avg(l_discount) as avg_disc, count(*) as count_order from lineitem where l_shipdate <= date '1998-12-01' - interval '90' day group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus"

	insertRows = 200       // rows per INSERT, as in htap_mix
	cacheBytes = 256 << 20 // the page cache of warm_scan
)

// env holds the fixtures the rungs share, each built on first use.
type env struct {
	sf   float64
	seed int64
	t    timer

	raw, auto, mut *aquoman.DB
	insertStmt     string
}

// open generates the TPC-H data set under the encoding and configures
// the DB the way aquoman-serve does for the warm workloads: observer on,
// a page cache that holds the whole store.
func (e *env) open(enc aquoman.Encoding) (*aquoman.DB, error) {
	db := aquoman.Open()
	db.SetDefaultEncoding(enc)
	if err := db.LoadTPCH(e.sf, e.seed); err != nil {
		return nil, err
	}
	db.EnableObservability()
	db.EnableCache(cacheBytes)
	return db, nil
}

func (e *env) rawDB() (*aquoman.DB, error) {
	if e.raw == nil {
		db, err := e.open(aquoman.EncRaw)
		if err != nil {
			return nil, err
		}
		e.raw = db
	}
	return e.raw, nil
}

func (e *env) autoDB() (*aquoman.DB, error) {
	if e.auto == nil {
		db, err := e.open(aquoman.EncAuto)
		if err != nil {
			return nil, err
		}
		e.auto = db
	}
	return e.auto, nil
}

// mutDB is the one store the write-path rungs mutate; the others stay
// clean so that rung order does not change what they measure.
func (e *env) mutDB() (*aquoman.DB, error) {
	if e.mut == nil {
		db, err := e.open(aquoman.EncRaw)
		if err != nil {
			return nil, err
		}
		e.mut = db
	}
	return e.mut, nil
}

// lineitem returns the table and its row count as a float for rates.
func lineitem(db *aquoman.DB) (*col.Table, float64, error) {
	t, err := db.Store.Table("lineitem")
	if err != nil {
		return nil, 0, err
	}
	return t, float64(t.NumRows), nil
}

// scanTask compiles TPC-H query q against the store and returns the
// Table Task that scans lineitem — the unit of work rowsel, systolic,
// swissknife and tabletask are measured on.
func scanTask(db *aquoman.DB, q int) (*tabletask.Task, error) {
	def, err := tpch.Get(q)
	if err != nil {
		return nil, err
	}
	p := def.Build()
	if err := plan.Bind(p, db.Store); err != nil {
		return nil, err
	}
	res, err := compiler.Compile(p, db.Store, compiler.Config{HeapScale: db.HeapScale})
	if err != nil {
		return nil, err
	}
	for _, u := range res.Units {
		for _, t := range u.Tasks {
			if t.Table == "lineitem" {
				return t, nil
			}
		}
	}
	return nil, fmt.Errorf("q%d compiled to no lineitem Table Task: %v", q, res.Notes)
}

// readCols reads whole columns of a table on the host side.
func readCols(t *col.Table, names []string) ([][]int64, error) {
	out := make([][]int64, len(names))
	for i, name := range names {
		ci, err := t.Column(name)
		if err != nil {
			return nil, err
		}
		if out[i], err = ci.ReadAll(flash.Host); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// insertSQL renders the first insertRows lineitem rows as one INSERT
// statement, the statement htap_mix sends.
func (e *env) insertSQL() (string, error) {
	if e.insertStmt != "" {
		return e.insertStmt, nil
	}
	db, err := e.rawDB()
	if err != nil {
		return "", err
	}
	li, _, err := lineitem(db)
	if err != nil {
		return "", err
	}
	var names []string
	var infos []*col.ColumnInfo
	for _, def := range li.Cols {
		if def.Typ != col.RowID {
			names, infos = append(names, def.Name), append(infos, li.MustColumn(def.Name))
		}
	}
	vals := make([][]int64, len(infos))
	for c, ci := range infos {
		vals[c] = make([]int64, insertRows)
		if _, err := ci.ReadRange(0, insertRows, flash.Host, vals[c]); err != nil {
			return "", err
		}
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO lineitem (" + strings.Join(names, ", ") + ") VALUES ")
	for r := 0; r < insertRows; r++ {
		if r > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		for c, ci := range infos {
			if c > 0 {
				sb.WriteString(", ")
			}
			lit, err := literal(ci, vals[c][r])
			if err != nil {
				return "", err
			}
			sb.WriteString(lit)
		}
		sb.WriteByte(')')
	}
	e.insertStmt = sb.String()
	return e.insertStmt, nil
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
