package sql

import (
	"sync"
	"testing"

	"aquoman/internal/col"
	"aquoman/internal/flash"
)

var (
	fuzzOnce  sync.Once
	fuzzStore *col.Store
)

// fuzzDMLStore is a tiny fixed store covering every column type the
// compiler dispatches on, so Compile exercises literal evaluation and
// plan construction, not just the parser.
func fuzzDMLStore() *col.Store {
	fuzzOnce.Do(func() {
		s := col.NewStore(flash.NewDevice())
		tb := s.NewTable(col.Schema{Name: "t", Cols: []col.ColDef{
			{Name: "a", Typ: col.Int32},
			{Name: "b", Typ: col.Int64},
			{Name: "d", Typ: col.Date},
			{Name: "m", Typ: col.Decimal},
			{Name: "s", Typ: col.Dict},
			{Name: "x", Typ: col.Text},
		}})
		tb.Append(1, int64(10), 100, 1250, "alpha", "hello")
		tb.Append(2, int64(20), 200, 2500, "beta", "world")
		if _, err := tb.Finalize(); err != nil {
			panic(err)
		}
		fuzzStore = s
	})
	return fuzzStore
}

// FuzzDMLParse feeds arbitrary statement text through the one Compile
// entry: it must reject garbage with an error, never panic, and whatever
// it accepts must satisfy the wrapper properties (checkStatementKind).
func FuzzDMLParse(f *testing.F) {
	seeds := []string{
		"CREATE TABLE events (e_id bigint, e_day date, e_msg text)",
		"INSERT INTO t (a, b, d, m, s, x) VALUES (1, 2, DATE '1997-01-01', 3.25, 'alpha', 'hi')",
		"INSERT INTO t (a) VALUES (-5), (6), (7)",
		"UPDATE t SET b = b + 1, x = 'patched' WHERE a BETWEEN 1 AND 2",
		"UPDATE t SET m = 9.99 WHERE s = 'beta' AND NOT (b > 15)",
		"DELETE FROM t WHERE x LIKE '%or%' OR d >= DATE '1995-06-17'",
		"DELETE FROM t",
		"INSERT INTO t VALUES (1, 2, 3, 4, 'alpha', 'x'); -- trailing",
		"UPDATE t SET a = 1 WHERE s IN ('alpha', 'beta')",
		"create table x (y int); select",
		"SELECT a, sum(b) AS sb FROM t WHERE s = 'alpha' GROUP BY a ORDER BY a LIMIT 3",
		"select x from t where x like '%ell%';",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return
		}
		checkStatementKind(t, src, fuzzDMLStore())
	})
}
