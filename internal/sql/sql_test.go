package sql

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"aquoman/internal/col"
	"aquoman/internal/engine"
	"aquoman/internal/flash"
	"aquoman/internal/plan"
	"aquoman/internal/tpch"
)

var (
	onceStore sync.Once
	store     *col.Store
)

func testStore(t *testing.T) *col.Store {
	t.Helper()
	onceStore.Do(func() {
		store = col.NewStore(flash.NewDevice())
		if err := tpch.Gen(store, tpch.Config{SF: 0.005, Seed: 3}); err != nil {
			t.Fatalf("Gen: %v", err)
		}
	})
	return store
}

func runSQL(t *testing.T, src string) *engine.Batch {
	t.Helper()
	s := testStore(t)
	n, err := Plan(src, s)
	if err != nil {
		t.Fatalf("Plan(%q): %v", src, err)
	}
	b, err := engine.New(s).Run(n)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return b
}

func runPlan(t *testing.T, n plan.Node) *engine.Batch {
	t.Helper()
	s := testStore(t)
	if err := plan.Bind(n, s); err != nil {
		t.Fatal(err)
	}
	b, err := engine.New(s).Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func canon(b *engine.Batch) []string {
	rows := make([]string, b.NumRows())
	for r := range rows {
		var sb strings.Builder
		for c := range b.Cols {
			fmt.Fprintf(&sb, "%d|", b.Cols[c][r])
		}
		rows[r] = sb.String()
	}
	sort.Strings(rows)
	return rows
}

// assertSame compares batches as multisets of rows, matching columns by
// name where both sides share names and by position otherwise (SQL select
// order may differ from the hand-built plan's output order).
func assertSame(t *testing.T, got, want *engine.Batch) {
	t.Helper()
	if got.NumRows() != want.NumRows() || len(got.Cols) != len(want.Cols) {
		t.Fatalf("shape: %dx%d vs %dx%d", got.NumRows(), len(got.Cols),
			want.NumRows(), len(want.Cols))
	}
	// Reorder got's columns to want's order by name when possible.
	perm := make([]int, len(want.Cols))
	for i, wf := range want.Schema {
		perm[i] = -1
		for j, gf := range got.Schema {
			if gf.Name == wf.Name {
				perm[i] = j
			}
		}
		if perm[i] < 0 {
			perm[i] = i // positional fallback
		}
	}
	re := &engine.Batch{Schema: want.Schema, Cols: make([][]int64, len(want.Cols))}
	for i, j := range perm {
		re.Cols[i] = got.Cols[j]
	}
	gc, wc := canon(re), canon(want)
	for i := range wc {
		if gc[i] != wc[i] {
			t.Fatalf("row %d differs:\n got  %s\n want %s", i, gc[i], wc[i])
		}
	}
}

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT a, 1.5 FROM t WHERE x <> 'it''s' -- comment\n AND y >= 2")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tok := range toks {
		kinds = append(kinds, tok.text)
	}
	want := []string{"SELECT", "a", ",", "1.5", "FROM", "t", "WHERE", "x", "<>",
		"it's", "AND", "y", ">=", "2", ""}
	if len(kinds) != len(want) {
		t.Fatalf("tokens = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, kinds[i], want[i])
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("SELECT 'unterminated"); err == nil {
		t.Fatal("unterminated string accepted")
	}
	if _, err := lex("SELECT a ~ b"); err == nil {
		t.Fatal("bad symbol accepted")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t extra garbage at end $$",
	}
	for _, src := range bad {
		if _, err := Compile(src, testStore(t)); err == nil {
			t.Errorf("parsed: %q", src)
		}
	}
}

// The SQL form of TPC-H q6 must match the hand-built plan exactly.
func TestQ6SQLMatchesHandPlan(t *testing.T) {
	got := runSQL(t, `
		SELECT sum(l_extendedprice * l_discount) AS revenue
		FROM lineitem
		WHERE l_shipdate >= date '1994-01-01'
		  AND l_shipdate < date '1994-01-01' + interval '1' year
		  AND l_discount BETWEEN 0.05 AND 0.07
		  AND l_quantity < 24`)
	want := runPlan(t, tpch.Q6())
	assertSame(t, got, want)
}

// TPC-H q1 in SQL: group-by, six aggregates with shared inputs, order by.
func TestQ1SQLMatchesHandPlan(t *testing.T) {
	got := runSQL(t, `
		SELECT l_returnflag, l_linestatus,
		       sum(l_quantity) AS sum_qty,
		       sum(l_extendedprice) AS sum_base_price,
		       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
		       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
		       avg(l_quantity) AS avg_qty,
		       avg(l_extendedprice) AS avg_price,
		       avg(l_discount) AS avg_disc,
		       count(*) AS count_order
		FROM lineitem
		WHERE l_shipdate <= date '1998-12-01' - interval '90' day
		GROUP BY l_returnflag, l_linestatus
		ORDER BY l_returnflag, l_linestatus`)
	want := runPlan(t, tpch.Q1())
	assertSame(t, got, want)
}

// TPC-H q3 in SQL: three-way join, filters, group by, order by, limit.
func TestQ3SQLMatchesHandPlan(t *testing.T) {
	got := runSQL(t, `
		SELECT l_orderkey,
		       sum(l_extendedprice * (1 - l_discount)) AS revenue,
		       o_orderdate, o_shippriority
		FROM customer, orders, lineitem
		WHERE c_mktsegment = 'BUILDING'
		  AND c_custkey = o_custkey
		  AND l_orderkey = o_orderkey
		  AND o_orderdate < date '1995-03-15'
		  AND l_shipdate > date '1995-03-15'
		GROUP BY l_orderkey, o_orderdate, o_shippriority
		ORDER BY revenue DESC, o_orderdate
		LIMIT 10`)
	want := runPlan(t, tpch.Q3())
	assertSame(t, got, want)
}

// TPC-H q5 in SQL: six-way join including the residual
// c_nationkey = s_nationkey condition.
func TestQ5SQLMatchesHandPlan(t *testing.T) {
	got := runSQL(t, `
		SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
		FROM customer, orders, lineitem, supplier, nation, region
		WHERE c_custkey = o_custkey
		  AND l_orderkey = o_orderkey
		  AND l_suppkey = s_suppkey
		  AND c_nationkey = s_nationkey
		  AND s_nationkey = n_nationkey
		  AND n_regionkey = r_regionkey
		  AND r_name = 'ASIA'
		  AND o_orderdate >= date '1994-01-01'
		  AND o_orderdate < date '1994-01-01' + interval '1' year
		GROUP BY n_name
		ORDER BY revenue DESC`)
	want := runPlan(t, tpch.Q5())
	assertSame(t, got, want)
}

// TPC-H q14 in SQL: CASE + LIKE + post-aggregate arithmetic.
func TestQ14SQLMatchesHandPlan(t *testing.T) {
	got := runSQL(t, `
		SELECT 100.00 * sum(CASE WHEN p_type LIKE 'PROMO%'
		                    THEN l_extendedprice * (1 - l_discount)
		                    ELSE 0 END)
		       / sum(l_extendedprice * (1 - l_discount)) AS promo_revenue
		FROM lineitem, part
		WHERE l_partkey = p_partkey
		  AND l_shipdate >= date '1995-09-01'
		  AND l_shipdate < date '1995-09-01' + interval '1' month`)
	want := runPlan(t, tpch.Q14())
	assertSame(t, got, want)
}

// TPC-H q12 in SQL: IN list + CASE counting + multi-column predicates.
func TestQ12SQLMatchesHandPlan(t *testing.T) {
	got := runSQL(t, `
		SELECT l_shipmode,
		       sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS high_line_count,
		       sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END) AS low_line_count
		FROM orders, lineitem
		WHERE o_orderkey = l_orderkey
		  AND l_shipmode IN ('MAIL', 'SHIP')
		  AND l_commitdate < l_receiptdate
		  AND l_shipdate < l_commitdate
		  AND l_receiptdate >= date '1994-01-01'
		  AND l_receiptdate < date '1994-01-01' + interval '1' year
		GROUP BY l_shipmode
		ORDER BY l_shipmode`)
	want := runPlan(t, tpch.Q12())
	assertSame(t, got, want)
}

// Computed group keys (EXTRACT YEAR) pre-project.
func TestComputedGroupKey(t *testing.T) {
	b := runSQL(t, `
		SELECT extract(year from o_orderdate) AS y, count(*) AS n
		FROM orders
		GROUP BY extract(year from o_orderdate)
		ORDER BY y`)
	if b.NumRows() != 7 { // 1992..1998
		t.Fatalf("years = %d", b.NumRows())
	}
	ys, _ := b.Col("y")
	if ys[0] != 1992 || ys[len(ys)-1] != 1998 {
		t.Fatalf("year range = %d..%d", ys[0], ys[len(ys)-1])
	}
}

// Aliased self-join.
func TestSelfJoinAliases(t *testing.T) {
	b := runSQL(t, `
		SELECT n1.n_name AS a, n2.n_name AS b
		FROM nation n1, nation n2
		WHERE n1.n_regionkey = n2.n_nationkey AND n1.n_nationkey < 3
		ORDER BY a`)
	if b.NumRows() != 3 {
		t.Fatalf("rows = %d", b.NumRows())
	}
}

// HAVING over aggregates.
func TestHaving(t *testing.T) {
	b := runSQL(t, `
		SELECT o_custkey, count(*) AS n
		FROM orders
		GROUP BY o_custkey
		HAVING count(*) > 20
		ORDER BY n DESC`)
	ns, _ := b.Col("n")
	for _, v := range ns {
		if v <= 20 {
			t.Fatalf("having leaked %d", v)
		}
	}
}

// Pure projection without aggregation.
func TestPureProjection(t *testing.T) {
	b := runSQL(t, `
		SELECT r_name, r_regionkey * 10 AS tens
		FROM region
		ORDER BY r_regionkey DESC
		LIMIT 3`)
	if b.NumRows() != 3 {
		t.Fatalf("rows = %d", b.NumRows())
	}
	tens, _ := b.Col("tens")
	if tens[0] != 40 {
		t.Fatalf("tens[0] = %d", tens[0])
	}
}

// SUBSTRING ... IN packs strings (q22's cntrycode shape).
func TestSubstringIn(t *testing.T) {
	b := runSQL(t, `
		SELECT count(*) AS n
		FROM customer
		WHERE substring(c_phone, 1, 2) IN ('13', '31')`)
	n, _ := b.Col("n")
	if n[0] <= 0 {
		t.Fatalf("n = %d", n[0])
	}
}

// Decimal literal scaling: 24 compares against a ×100 decimal column.
func TestDecimalCoercion(t *testing.T) {
	a := runSQL(t, `SELECT count(*) AS n FROM lineitem WHERE l_quantity < 24`)
	bq := runSQL(t, `SELECT count(*) AS n FROM lineitem WHERE l_quantity < 24.00`)
	av, _ := a.Col("n")
	bv, _ := bq.Col("n")
	if av[0] != bv[0] || av[0] == 0 {
		t.Fatalf("coercion mismatch: %d vs %d", av[0], bv[0])
	}
}

// Planner error cases.
func TestPlannerErrors(t *testing.T) {
	s := testStore(t)
	bad := []string{
		"SELECT x FROM lineitem",                   // unknown column
		"SELECT l_orderkey FROM lineitem, missing", // unknown table
		"SELECT n_name FROM nation, region",        // cross join
		"SELECT o_custkey FROM orders, customer WHERE o_custkey = c_custkey GROUP BY o_clerk",                             // non-key select
		"SELECT c_custkey FROM customer, orders WHERE c_custkey = o_custkey AND c_custkey = 1 ORDER BY sum(o_totalprice)", // expr order by
	}
	for _, src := range bad {
		if _, err := Plan(src, s); err == nil {
			t.Errorf("planned: %q", src)
		}
	}
}

// SQL-planned queries must offload like hand-built ones: run one through
// the public offload path via the compiler-visible structure.
func TestSQLPlanOffloads(t *testing.T) {
	s := testStore(t)
	n, err := Plan(`SELECT l_returnflag, sum(l_quantity) AS q
		FROM lineitem GROUP BY l_returnflag`, s)
	if err != nil {
		t.Fatal(err)
	}
	// The plan is already bound; check the structure is a group-by over a
	// scan, which the offload compiler accepts.
	ob, ok := n.(*plan.Project)
	if !ok {
		t.Fatalf("root = %T", n)
	}
	if _, ok := ob.Input.(*plan.GroupBy); !ok {
		t.Fatalf("input = %T", ob.Input)
	}
}
