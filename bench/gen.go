package main

// Seeded data generators and SQL text builders. Everything the engine
// sees is generated SQL; the generator keeps its own in-memory rows so
// the oracle (oracle.go) can compute expected answers without the
// engine. The same seed always yields the same rows and statements.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// loadBatch is the number of rows per bulk-load INSERT statement.
const loadBatch = 50

// sizes are the per-workload table cardinalities. Smoke mode divides
// the big tables by 50 so the test finishes in seconds — star_scan's by
// 5 only, or execution would no longer dominate its ops.
type sizes struct {
	lineorder, customer, part, dates int // star_scan
	quotations, inventory, chain     int // adhoc_compile
	tree                             int
	acct                             int // oltp_mixed
	diskLineorder, diskPart          int // durable_commit
}

func sizesFor(smoke bool) sizes {
	s := sizes{
		lineorder: 30000, customer: 3000, part: 2000, dates: 2500,
		quotations: 48, inventory: 12, chain: 12, tree: 20,
		acct:          20000,
		diskLineorder: 20000, diskPart: 500,
	}
	if smoke {
		s.lineorder, s.customer, s.part, s.dates = 6000, 600, 400, 500
		s.acct = 400
		s.diskLineorder, s.diskPart = 400, 50
	}
	return s
}

// ---------------------------------------------------------------------
// Star schema (star_scan, durable_commit)

type loRow struct {
	orderkey, custkey, partkey, datekey int64
	quantity, price, discount, revenue  int64
	shipmode                            string
}

type custRow struct {
	custkey                 int64
	region, nation, segment string
	minqty                  int64
}

type partRow struct {
	partkey         int64
	category, brand string
	size            int64
}

type dateRow struct {
	datekey, year, month int64
	weekday              string
}

type starData struct {
	lo    []loRow
	cust  []custRow
	part  []partRow
	dates []dateRow
}

var (
	regions   = []string{"ASIA", "EUROPE", "AMERICA", "AFRICA", "MIDEAST"}
	segments  = []string{"AUTO", "MACHINE", "BUILDING", "HOUSE"}
	shipmodes = []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL"}
)

const (
	lineorderDDL = "(lo_orderkey INT, lo_custkey INT, lo_partkey INT, lo_datekey INT, lo_quantity INT, lo_price INT, lo_discount INT, lo_revenue INT, lo_shipmode STRING)"
	customerDDL  = "(c_custkey INT, c_region STRING, c_nation STRING, c_segment STRING, c_minqty INT)"
	partDDL      = "(p_partkey INT, p_category STRING, p_brand STRING, p_size INT)"
	datesDDL     = "(d_datekey INT, d_year INT, d_month INT, d_weekday STRING)"
)

func genLineorder(rng *rand.Rand, firstKey int64, n, nCust, nPart, nDates int) []loRow {
	rows := make([]loRow, n)
	for i := range rows {
		q, p, d := int64(1+rng.Intn(50)), int64(100+rng.Intn(900)), int64(rng.Intn(11))
		rows[i] = loRow{
			orderkey: firstKey + int64(i),
			custkey:  int64(1 + rng.Intn(nCust)),
			partkey:  int64(1 + rng.Intn(nPart)),
			datekey:  int64(1 + rng.Intn(nDates)),
			quantity: q, price: p, discount: d,
			revenue:  q * p * (100 - d) / 100,
			shipmode: shipmodes[rng.Intn(len(shipmodes))],
		}
	}
	return rows
}

func genPart(rng *rand.Rand, n int) []partRow {
	rows := make([]partRow, n)
	for i := range rows {
		rows[i] = partRow{
			partkey:  int64(i + 1),
			category: "CAT" + strconv.Itoa(rng.Intn(10)),
			brand:    "B" + strconv.Itoa(rng.Intn(40)),
			size:     int64(1 + rng.Intn(50)),
		}
	}
	return rows
}

func genStar(seed int64, sz sizes) *starData {
	rng := rand.New(rand.NewSource(seed))
	d := &starData{}
	d.cust = make([]custRow, sz.customer)
	for i := range d.cust {
		d.cust[i] = custRow{
			custkey: int64(i + 1),
			region:  regions[rng.Intn(len(regions))],
			nation:  "N" + strconv.Itoa(rng.Intn(25)),
			segment: segments[rng.Intn(len(segments))],
			minqty:  int64(44 + rng.Intn(6)),
		}
	}
	d.part = genPart(rng, sz.part)
	d.dates = make([]dateRow, sz.dates)
	for i := range d.dates {
		d.dates[i] = dateRow{
			datekey: int64(i + 1),
			year:    int64(1992 + i/365),
			month:   int64(1 + (i/30)%12),
			weekday: "W" + strconv.Itoa(i%7),
		}
	}
	d.lo = genLineorder(rng, 1, sz.lineorder, sz.customer, sz.part, sz.dates)
	return d
}

func (r loRow) sql() string {
	return fmt.Sprintf("(%d, %d, %d, %d, %d, %d, %d, %d, '%s')",
		r.orderkey, r.custkey, r.partkey, r.datekey, r.quantity, r.price, r.discount, r.revenue, r.shipmode)
}
func (r loRow) userBytes() int64 { return 8*8 + int64(len(r.shipmode)) }

func (r custRow) sql() string {
	return fmt.Sprintf("(%d, '%s', '%s', '%s', %d)", r.custkey, r.region, r.nation, r.segment, r.minqty)
}
func (r custRow) userBytes() int64 {
	return 2*8 + int64(len(r.region)+len(r.nation)+len(r.segment))
}

func (r partRow) sql() string {
	return fmt.Sprintf("(%d, '%s', '%s', %d)", r.partkey, r.category, r.brand, r.size)
}
func (r partRow) userBytes() int64 { return 2*8 + int64(len(r.category)+len(r.brand)) }

func (r dateRow) sql() string {
	return fmt.Sprintf("(%d, %d, %d, '%s')", r.datekey, r.year, r.month, r.weekday)
}
func (r dateRow) userBytes() int64 { return 3*8 + int64(len(r.weekday)) }

// sqlRow is what every generated row type offers the loader.
type sqlRow interface {
	sql() string
	userBytes() int64
}

// insertStmts renders rows as multi-row literal INSERT statements of at
// most batch rows each and returns them with the user-data byte count
// (8 per INT/FLOAT, len per STRING).
func insertStmts[T sqlRow](table string, rows []T, batch int) (stmts []string, userBytes int64) {
	var sb strings.Builder
	for i := 0; i < len(rows); i += batch {
		sb.Reset()
		sb.WriteString("INSERT INTO ")
		sb.WriteString(table)
		sb.WriteString(" VALUES ")
		for j := i; j < i+batch && j < len(rows); j++ {
			if j > i {
				sb.WriteString(", ")
			}
			sb.WriteString(rows[j].sql())
			userBytes += rows[j].userBytes()
		}
		stmts = append(stmts, sb.String())
	}
	return stmts, userBytes
}

// ---------------------------------------------------------------------
// Paper schema (adhoc_compile)

type quotRow struct {
	partno   int64
	price    float64
	orderQty int64
	suppno   int64
}

type invRow struct {
	partno, onhand int64
	typ            string
}

type suppRow struct {
	suppno int64
	city   string
}

type kvRow struct{ k, v int64 }

type treeRow struct{ id, parent, weight int64 }

type paperData struct {
	quot  []quotRow
	inv   []invRow
	supp  []suppRow
	chain [6][]kvRow
	tree  []treeRow
}

var partTypes = []string{"CPU", "DISK", "RAM", "NIC"}

func genPaper(seed int64, sz sizes) *paperData {
	rng := rand.New(rand.NewSource(seed))
	d := &paperData{}
	d.quot = make([]quotRow, sz.quotations)
	for i := range d.quot {
		d.quot[i] = quotRow{
			partno:   int64(i%sz.inventory + 1),
			price:    float64(rng.Intn(1000)) + 0.5,
			orderQty: int64(rng.Intn(100)),
			suppno:   int64(rng.Intn(10)),
		}
	}
	d.inv = make([]invRow, sz.inventory)
	for i := range d.inv {
		d.inv[i] = invRow{partno: int64(i + 1), onhand: int64(rng.Intn(50)), typ: partTypes[(i+1)%4]}
	}
	d.supp = make([]suppRow, 10)
	for i := range d.supp {
		d.supp[i] = suppRow{suppno: int64(i), city: "CITY" + strconv.Itoa(i%3)}
	}
	for t := range d.chain {
		d.chain[t] = make([]kvRow, sz.chain)
		for i := range d.chain[t] {
			d.chain[t][i] = kvRow{k: int64(i), v: int64(rng.Intn(100))}
		}
	}
	d.tree = make([]treeRow, sz.tree)
	for i := range d.tree {
		id := int64(i + 1)
		d.tree[i] = treeRow{id: id, parent: id / 3, weight: int64(rng.Intn(10))}
	}
	return d
}

func (r quotRow) sql() string {
	return fmt.Sprintf("(%d, %s, %d, %d)", r.partno, strconv.FormatFloat(r.price, 'f', 1, 64), r.orderQty, r.suppno)
}
func (r quotRow) userBytes() int64 { return 4 * 8 }

func (r invRow) sql() string      { return fmt.Sprintf("(%d, %d, '%s')", r.partno, r.onhand, r.typ) }
func (r invRow) userBytes() int64 { return 2*8 + int64(len(r.typ)) }

func (r suppRow) sql() string      { return fmt.Sprintf("(%d, '%s')", r.suppno, r.city) }
func (r suppRow) userBytes() int64 { return 8 + int64(len(r.city)) }

func (r kvRow) sql() string      { return fmt.Sprintf("(%d, %d)", r.k, r.v) }
func (r kvRow) userBytes() int64 { return 2 * 8 }

func (r treeRow) sql() string      { return fmt.Sprintf("(%d, %d, %d)", r.id, r.parent, r.weight) }
func (r treeRow) userBytes() int64 { return 3 * 8 }

// ---------------------------------------------------------------------
// Accounts (oltp_mixed)

type acctRow struct {
	id, bal, branch int64
	note            string
}

const (
	acctBranches   = 100
	acctInitialBal = 1000
)

func genAcct(seed int64, sz sizes) []acctRow {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]acctRow, sz.acct)
	for i := range rows {
		rows[i] = acctRow{
			id: int64(i + 1), bal: acctInitialBal,
			branch: int64(rng.Intn(acctBranches)),
			note:   "n" + strconv.Itoa(i+1),
		}
	}
	return rows
}

func (r acctRow) sql() string {
	return fmt.Sprintf("(%d, %d, %d, '%s')", r.id, r.bal, r.branch, r.note)
}
func (r acctRow) userBytes() int64 { return 3*8 + int64(len(r.note)) }
