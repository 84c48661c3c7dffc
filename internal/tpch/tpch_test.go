package tpch

import (
	"sync"
	"testing"

	"aquoman/internal/col"
	"aquoman/internal/engine"
	"aquoman/internal/flash"
	"aquoman/internal/plan"
)

var (
	storeOnce sync.Once
	testStore *col.Store
)

// sharedStore generates one small SF dataset for the whole test package.
func sharedStore(t *testing.T) *col.Store {
	t.Helper()
	storeOnce.Do(func() {
		s := col.NewStore(flash.NewDevice())
		if err := Gen(s, Config{SF: 0.01, Seed: 42}); err != nil {
			t.Fatalf("Gen: %v", err)
		}
		testStore = s
	})
	return testStore
}

func TestGenCardinalities(t *testing.T) {
	s := sharedStore(t)
	want := map[string]int{
		"region":   5,
		"nation":   25,
		"supplier": 100,
		"part":     2000,
		"partsupp": 8000,
		"customer": 1500,
		"orders":   15000,
	}
	for name, n := range want {
		tab, err := s.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if tab.NumRows != n {
			t.Errorf("%s rows = %d, want %d", name, tab.NumRows, n)
		}
	}
	li, _ := s.Table("lineitem")
	// 1..7 lines per order, expect about 4x orders.
	if li.NumRows < 3*15000 || li.NumRows > 5*15000 {
		t.Errorf("lineitem rows = %d, outside [45000, 75000]", li.NumRows)
	}
}

func TestGenDeterministic(t *testing.T) {
	s1 := col.NewStore(flash.NewDevice())
	s2 := col.NewStore(flash.NewDevice())
	if err := Gen(s1, Config{SF: 0.01, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := Gen(s2, Config{SF: 0.01, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	for _, tab := range []string{"orders", "lineitem"} {
		t1, t2 := s1.MustTable(tab), s2.MustTable(tab)
		if t1.NumRows != t2.NumRows {
			t.Fatalf("%s row counts differ", tab)
		}
		c1 := t1.MustColumn(t1.Cols[0].Name).MustReadAll(flash.Host)
		c2 := t2.MustColumn(t2.Cols[0].Name).MustReadAll(flash.Host)
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("%s col0 row %d differs", tab, i)
			}
		}
	}
}

func TestGenKeyRelationships(t *testing.T) {
	s := sharedStore(t)
	li := s.MustTable("lineitem")
	orders := s.MustTable("orders")
	// Materialized rowid columns exist and point at matching keys.
	rid := li.MustColumn(col.RowIDColumnName("l_orderkey")).MustReadAll(flash.Host)
	lok := li.MustColumn("l_orderkey").MustReadAll(flash.Host)
	ook := orders.MustColumn("o_orderkey").MustReadAll(flash.Host)
	for i := 0; i < len(rid); i += 997 {
		if ook[rid[i]] != lok[i] {
			t.Fatalf("lineitem row %d: rowid %d points at order %d, want %d",
				i, rid[i], ook[rid[i]], lok[i])
		}
	}
	// Composite partsupp join index.
	psrid := li.MustColumn(PartSuppRowIDCol).MustReadAll(flash.Host)
	ps := s.MustTable("partsupp")
	pspk := ps.MustColumn("ps_partkey").MustReadAll(flash.Host)
	pssk := ps.MustColumn("ps_suppkey").MustReadAll(flash.Host)
	lpk := li.MustColumn("l_partkey").MustReadAll(flash.Host)
	lsk := li.MustColumn("l_suppkey").MustReadAll(flash.Host)
	for i := 0; i < len(psrid); i += 997 {
		r := psrid[i]
		if pspk[r] != lpk[i] || pssk[r] != lsk[i] {
			t.Fatalf("lineitem row %d: partsupp rowid mismatch", i)
		}
	}
	// Customers with custkey %3 == 0 have no orders.
	ock := orders.MustColumn("o_custkey").MustReadAll(flash.Host)
	for i, ck := range ock {
		if ck%3 == 0 {
			t.Fatalf("order %d has custkey %d (multiple of 3)", i, ck)
		}
	}
}

func TestGenValueDomains(t *testing.T) {
	s := sharedStore(t)
	li := s.MustTable("lineitem")
	qty := li.MustColumn("l_quantity").MustReadAll(flash.Host)
	disc := li.MustColumn("l_discount").MustReadAll(flash.Host)
	tax := li.MustColumn("l_tax").MustReadAll(flash.Host)
	ship := li.MustColumn("l_shipdate").MustReadAll(flash.Host)
	rcpt := li.MustColumn("l_receiptdate").MustReadAll(flash.Host)
	lo, hi := col.MustParseDate("1992-01-02"), col.MustParseDate("1998-12-31")
	for i := range qty {
		if qty[i] < 100 || qty[i] > 5000 {
			t.Fatalf("quantity out of range: %d", qty[i])
		}
		if disc[i] < 0 || disc[i] > 10 {
			t.Fatalf("discount out of range: %d", disc[i])
		}
		if tax[i] < 0 || tax[i] > 8 {
			t.Fatalf("tax out of range: %d", tax[i])
		}
		if ship[i] < lo || ship[i] > hi || rcpt[i] <= ship[i] {
			t.Fatalf("dates out of range at %d", i)
		}
	}
	// Returnflag consistency with receiptdate.
	rf := li.MustColumn("l_returnflag")
	flags, err := rf.Strs(nil, rf.MustReadAll(flash.Host), flash.Host)
	if err != nil {
		t.Fatal(err)
	}
	for i, flag := range flags {
		isN := flag == "N"
		if (rcpt[i] > CurrentDate) != isN {
			t.Fatalf("returnflag inconsistent at row %d", i)
		}
	}
}

func TestGenPhonePrefixMatchesNation(t *testing.T) {
	s := sharedStore(t)
	c := s.MustTable("customer")
	phones := c.MustColumn("c_phone")
	strs, err := phones.Strs(nil, phones.MustReadAll(flash.Host), flash.Host)
	if err != nil {
		t.Fatal(err)
	}
	nats := c.MustColumn("c_nationkey").MustReadAll(flash.Host)
	for i := 0; i < len(strs); i += 101 {
		ph := strs[i]
		w0 := byte('0' + (nats[i]+10)/10)
		w1 := byte('0' + (nats[i]+10)%10)
		if ph[0] != w0 || ph[1] != w1 {
			t.Fatalf("phone %q does not encode nation %d", ph, nats[i])
		}
	}
}

// runQuery binds and executes query q on the shared store.
func runQuery(t *testing.T, q int) *engine.Batch {
	t.Helper()
	s := sharedStore(t)
	def, err := Get(q)
	if err != nil {
		t.Fatal(err)
	}
	n := def.Build()
	if err := plan.Bind(n, s); err != nil {
		t.Fatalf("q%d bind: %v", q, err)
	}
	b, err := engine.New(s).Run(n)
	if err != nil {
		t.Fatalf("q%d run: %v", q, err)
	}
	return b
}

// All 22 queries must execute and produce plausible shapes.
func TestAllQueriesExecute(t *testing.T) {
	expectRows := map[int]func(n int) bool{
		1:  func(n int) bool { return n == 4 },           // 4 rf/ls combos
		4:  func(n int) bool { return n == 5 },           // 5 priorities
		6:  func(n int) bool { return n == 1 },           // scalar
		12: func(n int) bool { return n == 2 },           // MAIL, SHIP
		14: func(n int) bool { return n == 1 },           // scalar
		17: func(n int) bool { return n == 1 },           // scalar
		19: func(n int) bool { return n == 1 },           // scalar
		22: func(n int) bool { return n >= 1 && n <= 7 }, // country codes
	}
	for _, q := range Queries() {
		b := runQuery(t, q.Num)
		if b == nil {
			t.Fatalf("q%d returned nil", q.Num)
		}
		if chk, ok := expectRows[q.Num]; ok && !chk(b.NumRows()) {
			t.Errorf("q%d rows = %d, unexpected", q.Num, b.NumRows())
		}
		t.Logf("q%02d (%s): %d rows", q.Num, q.Name, b.NumRows())
	}
}

// Q1 aggregates must satisfy internal consistency: sum_disc_price <=
// sum_base_price, charge >= disc_price, counts positive.
func TestQ1Consistency(t *testing.T) {
	b := runQuery(t, 1)
	base, _ := b.Col("sum_base_price")
	dp, _ := b.Col("sum_disc_price")
	ch, _ := b.Col("sum_charge")
	cnt, _ := b.Col("count_order")
	for i := 0; i < b.NumRows(); i++ {
		if dp[i] > base[i] || ch[i] < dp[i] || cnt[i] <= 0 {
			t.Fatalf("row %d inconsistent: base=%d dp=%d ch=%d cnt=%d",
				i, base[i], dp[i], ch[i], cnt[i])
		}
	}
}

// Q6 equals a hand-rolled reference computation over the raw table.
func TestQ6Reference(t *testing.T) {
	s := sharedStore(t)
	li := s.MustTable("lineitem")
	ship := li.MustColumn("l_shipdate").MustReadAll(flash.Host)
	disc := li.MustColumn("l_discount").MustReadAll(flash.Host)
	qty := li.MustColumn("l_quantity").MustReadAll(flash.Host)
	price := li.MustColumn("l_extendedprice").MustReadAll(flash.Host)
	lo, hi := col.MustParseDate("1994-01-01"), col.MustParseDate("1995-01-01")
	var want int64
	for i := range ship {
		if ship[i] >= lo && ship[i] < hi && disc[i] >= 5 && disc[i] <= 7 && qty[i] < 2400 {
			want += price[i] * disc[i] / 100
		}
	}
	b := runQuery(t, 6)
	got, _ := b.Col("revenue")
	if got[0] != want {
		t.Fatalf("q6 revenue = %d, want %d", got[0], want)
	}
	if want == 0 {
		t.Fatal("q6 selected no rows; generator distributions broken")
	}
}

// Q13's distribution must cover all customers.
func TestQ13CoversAllCustomers(t *testing.T) {
	s := sharedStore(t)
	b := runQuery(t, 13)
	dist, _ := b.Col("custdist")
	var total int64
	for _, v := range dist {
		total += v
	}
	if total != int64(s.MustTable("customer").NumRows) {
		t.Fatalf("custdist total = %d, want %d", total, s.MustTable("customer").NumRows)
	}
}

// Q15's best supplier revenue matches the max over the revenue view.
func TestQ15MaxConsistency(t *testing.T) {
	b := runQuery(t, 15)
	if b.NumRows() < 1 {
		t.Fatal("q15 empty")
	}
	rev, _ := b.Col("total_revenue")
	for i := 1; i < b.NumRows(); i++ {
		if rev[i] != rev[0] {
			t.Fatal("q15 returned rows with differing revenue")
		}
	}
}

// Q22 country codes are within the filter set.
func TestQ22Codes(t *testing.T) {
	b := runQuery(t, 22)
	codes, _ := b.Col("cntrycode")
	allowed := map[int64]bool{}
	for _, c := range q22Codes {
		allowed[plan.PackString(c)] = true
	}
	for _, v := range codes {
		if !allowed[v] {
			t.Fatalf("unexpected cntrycode %#x", v)
		}
	}
	if b.NumRows() == 0 {
		t.Fatal("q22 empty; generator phone distribution broken")
	}
}
