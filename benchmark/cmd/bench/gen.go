package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// opKinds are the operation types whose latency is reported, as the
// per-layer server.<kind>_p50_ms and server.<kind>_tail_ms of a traced
// run. No workload sends all of them, and the contract wants every
// end-to-end metric from every workload, so none of them is one (see
// README.md).
var opKinds = []string{"q1", "q6", "point", "range", "tile", "report", "export", "dml"}

// Statement shapes. The parameter spaces of point, range, report and
// export are far larger than the number of statements a run sends, so on
// dashboard_mix they miss the result cache; the 16 tile statements are
// fixed and warmed, so they hit it. A type whose p50 straddled hit and
// miss would be bimodal and would not repeat.
const (
	pointSQL  = "select o_orderkey, o_custkey, o_totalprice, o_orderdate from orders where o_orderkey = %d"
	rangeSQL  = "select sum(l_extendedprice), count(*) from lineitem where l_orderkey >= %d and l_orderkey < %d"
	tileSQL   = "select l_shipmode, count(*) from lineitem where l_shipdate >= date '%s' and l_shipdate < date '%s' group by l_shipmode order by l_shipmode"
	reportSQL = "select sum(l_extendedprice * l_discount) as revenue from lineitem where l_shipdate >= date '%s' and l_shipdate < date '%s' + interval '1' year and l_discount between %s and %s and l_quantity < 24"
	exportSQL = "select l_orderkey, l_linenumber, l_quantity, l_extendedprice, l_shipdate from lineitem where l_quantity < 3 and l_orderkey <> %d"
	q6SQL     = "select sum(l_extendedprice * l_discount) as revenue from lineitem where l_shipdate >= date '1994-01-01' and l_shipdate < date '1994-01-01' + interval '1' year and l_discount between 0.05 and 0.07 and l_quantity < 24"
	countSQL  = "select count(*) from lineitem"

	rangeWidth = 2000 // l_orderkey values per range statement
	numTiles   = 16
	insertRows = 200 // rows per INSERT statement
	clonePool  = 4000
)

// oracleData is what the oracle process returns for one (sf, seed).
type oracleData struct {
	TPCH          map[string]answer `json:"tpch"`
	SQL           map[string]answer `json:"sql"`
	LineitemRows  int               `json:"lineitem_rows"`
	OrdersRows    int               `json:"orders_rows"`
	MaxOrderKey   int64             `json:"max_orderkey"`
	CloneColumns  []string          `json:"clone_columns"`
	CloneLiterals [][]string        `json:"clone_literals"`
}

// gen draws statements from the run's seed. One sample statement per SQL
// type is fixed up front and answered by the oracle; every round sends it
// first, so each type has at least one cell-exact check per server.
type gen struct {
	seed   int64
	rng    *rand.Rand
	ora    *oracleData
	sample map[string]string // kind -> sample statement
	tiles  []string
	// sent marks the kinds whose sample this round has already sent.
	sent map[string]bool
	// dirty is set once the round has written to lineitem: from then on
	// the static oracle no longer describes lineitem-derived answers.
	dirty   bool
	inserts int
}

// orderKey maps an order's ordinal to its key: TPC-H populates 8 of
// every 32 key values.
func orderKey(i int64) int64 { return (i/8)*32 + i%8 + 1 }

func dateAdd(base string, days int) string {
	t, _ := time.Parse("2006-01-02", base)
	return t.AddDate(0, 0, days).Format("2006-01-02")
}

// newGen fixes the sample statements, runs the oracle process over them
// and returns the generator the rounds draw from.
func newGen(bins binaries, sf float64, seed int64) (*gen, error) {
	g := &gen{seed: seed, rng: rand.New(rand.NewSource(seed)), sample: map[string]string{}}
	for m := 0; m < numTiles; m++ {
		lo := time.Date(1995, time.Month(1+m), 1, 0, 0, 0, 0, time.UTC)
		hi := lo.AddDate(0, 1, 0)
		g.tiles = append(g.tiles, fmt.Sprintf(tileSQL, lo.Format("2006-01-02"), hi.Format("2006-01-02")))
	}
	// Orders scale with sf exactly as the generator scales them.
	orders := int64(1500000 * sf)
	g.ora = &oracleData{OrdersRows: int(orders), MaxOrderKey: orderKey(orders - 1)}
	for _, k := range []string{"point", "range", "report", "export"} {
		g.sample[k] = g.draw(k)
	}
	req := struct {
		TPCH      []int    `json:"tpch"`
		SQL       []string `json:"sql"`
		CloneRows int      `json:"clone_rows"`
	}{TPCH: []int{1, 6}, SQL: append([]string{countSQL, q6SQL}, g.tiles...), CloneRows: clonePool}
	for _, k := range []string{"point", "range", "report", "export"} {
		req.SQL = append(req.SQL, g.sample[k])
	}
	in, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bins.oracle, "-sf", fmt.Sprint(sf), "-seed", fmt.Sprint(seed))
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("oracle process: %v", err)
	}
	var ora oracleData
	if err := json.Unmarshal(raw, &ora); err != nil {
		return nil, fmt.Errorf("oracle output: %v", err)
	}
	if int64(ora.OrdersRows) != orders {
		return nil, fmt.Errorf("oracle generated %d orders, driver expected %d", ora.OrdersRows, orders)
	}
	g.ora = &ora
	return g, nil
}

// want returns the oracle's answer for a statement, if it has one.
func (g *gen) want(stmt string) *answer {
	if w, ok := g.ora.SQL[stmt]; ok {
		return &w
	}
	return nil
}

// newRound resets the per-server state.
func (g *gen) newRound() {
	g.sent = map[string]bool{}
	g.dirty = false
	g.inserts = 0
}

// draw renders one statement of the kind with fresh parameters.
func (g *gen) draw(kind string) string {
	switch kind {
	case "point":
		return fmt.Sprintf(pointSQL, orderKey(g.rng.Int63n(int64(g.ora.OrdersRows))))
	case "range":
		lo := 1 + g.rng.Int63n(g.ora.MaxOrderKey-rangeWidth)
		return fmt.Sprintf(rangeSQL, lo, lo+rangeWidth)
	case "tile":
		return g.tiles[g.rng.Intn(len(g.tiles))]
	case "report":
		day := dateAdd("1993-01-01", g.rng.Intn(4*365))
		d := 2 + g.rng.Intn(8) // discount centre in cents
		return fmt.Sprintf(reportSQL, day, day, cents(d-1), cents(d+1))
	case "export":
		return fmt.Sprintf(exportSQL, orderKey(g.rng.Int63n(int64(g.ora.OrdersRows))))
	}
	panic("gen.draw: no statement for kind " + kind)
}

func cents(c int) string { return fmt.Sprintf("0.%02d", c) }

// next returns the next op of the kind for this round.
func (g *gen) next(kind string) *op {
	o := &op{kind: kind, wantRows: -1}
	switch kind {
	case "q1", "q6":
		o.path = "/tpch?q=" + kind[1:]
		if !g.dirty {
			w := g.ora.TPCH[kind[1:]]
			o.want = &w
		}
		return o
	}
	var stmt string
	if s, ok := g.sample[kind]; ok && !g.sent[kind] {
		g.sent[kind], stmt = true, s
	} else {
		stmt = g.draw(kind)
	}
	o.path = queryPath(stmt)
	if w, ok := g.ora.SQL[stmt]; ok && (!g.dirty || kind == "point") {
		o.want = &w
	}
	switch kind {
	case "point":
		o.wantRows = 1
		o.firstCell = stmt[strings.LastIndexByte(stmt, ' ')+1:]
	case "range", "report":
		o.wantRows = 1
	}
	return o
}

// insert clones insertRows base rows into one INSERT statement. The rows
// are real lineitem rows, so every foreign key resolves.
func (g *gen) insert() *op {
	g.dirty = true
	var sb strings.Builder
	sb.WriteString("INSERT INTO lineitem (")
	sb.WriteString(strings.Join(g.ora.CloneColumns, ", "))
	sb.WriteString(") VALUES ")
	pool := g.ora.CloneLiterals
	for i := 0; i < insertRows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		sb.WriteString(strings.Join(pool[(g.inserts*insertRows+i)%len(pool)], ", "))
		sb.WriteByte(')')
	}
	g.inserts++
	return &op{kind: "dml", path: "/dml", body: dmlBody(sb.String()), wantRows: insertRows}
}

// victim picks an order outside the cloned key range, so an UPDATE or
// DELETE touches base rows only and its effect is exactly the
// rows_affected the server reports.
func (g *gen) victim() int64 {
	lo := int64(g.ora.OrdersRows) / 4
	return orderKey(lo + g.rng.Int63n(int64(g.ora.OrdersRows)-lo))
}

func (g *gen) update() *op {
	g.dirty = true
	stmt := "UPDATE lineitem SET l_quantity = " + strconv.Itoa(1+g.rng.Intn(50)) + " WHERE l_orderkey = " + fmt.Sprint(g.victim())
	return &op{kind: "update", path: "/dml", body: dmlBody(stmt), wantRows: -1}
}

func (g *gen) delete() *op {
	g.dirty = true
	stmt := "DELETE FROM lineitem WHERE l_orderkey = " + fmt.Sprint(g.victim())
	return &op{kind: "delete", path: "/dml", body: dmlBody(stmt), wantRows: -1}
}
