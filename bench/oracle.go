package main

// The oracle: expected answers computed in plain Go (maps and loops
// over the generator's rows), never by running the engine in another
// configuration. Results are compared as order-insensitive multisets,
// or in order where the statement has ORDER BY. Numbers compare by
// value: an INT 3 and a FLOAT 3.0 are the same cell, so the oracle does
// not depend on which type the engine gives SUM.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	starburst "repro"
	"repro/internal/datum"
)

// cell is one expected value: int64, float64, string or nil (NULL).
type cell = any

// fingerprint identifies a result multiset (or sequence, when ordered)
// cheaply enough to check inside the timed loop.
type fingerprint struct {
	n        int
	sum, xor uint64
}

// expect is one statement's expected answer.
type expect struct {
	ordered bool
	rows    [][]cell
	fp      fingerprint
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func hashU64(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = hashByte(h, byte(v>>i))
	}
	return h
}

func hashInt(h uint64, v int64) uint64 { return hashU64(hashByte(h, 'n'), uint64(v)) }

func hashFloat(h uint64, f float64) uint64 {
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return hashInt(h, int64(f))
	}
	return hashU64(hashByte(h, 'f'), math.Float64bits(f))
}

func hashString(h uint64, s string) uint64 {
	h = hashByte(h, 's')
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	return hashByte(h, 0)
}

func hashNull(h uint64) uint64 { return hashByte(h, '0') }

// fold adds one row hash to a fingerprint.
func (fp *fingerprint) fold(rowHash uint64, ordered bool) {
	fp.n++
	if ordered {
		fp.sum = hashU64(fp.sum^fnvOffset, rowHash)
		return
	}
	fp.sum += rowHash
	fp.xor ^= rowHash * 0x9E3779B97F4A7C15
}

func fingerprintCells(rows [][]cell, ordered bool) fingerprint {
	var fp fingerprint
	for _, r := range rows {
		h := uint64(fnvOffset)
		for _, c := range r {
			switch v := c.(type) {
			case nil:
				h = hashNull(h)
			case int64:
				h = hashInt(h, v)
			case float64:
				h = hashFloat(h, v)
			case string:
				h = hashString(h, v)
			default:
				panic(fmt.Sprintf("oracle: unsupported cell type %T", c))
			}
		}
		fp.fold(h, ordered)
	}
	return fp
}

func fingerprintResult(rows []starburst.Row, ordered bool) fingerprint {
	var fp fingerprint
	for _, r := range rows {
		h := uint64(fnvOffset)
		for _, v := range r {
			switch {
			case v.IsNull():
				h = hashNull(h)
			case v.Type() == datum.TInt:
				h = hashInt(h, v.Int())
			case v.Type() == datum.TFloat:
				h = hashFloat(h, v.Float())
			case v.Type() == datum.TString:
				h = hashString(h, v.Str())
			default:
				h = hashString(h, v.String())
			}
		}
		fp.fold(h, ordered)
	}
	return fp
}

func newExpect(rows [][]cell, ordered bool) *expect {
	return &expect{ordered: ordered, rows: rows, fp: fingerprintCells(rows, ordered)}
}

// check compares an engine result with the expectation; the error names
// the first differing row.
func (e *expect) check(rows []starburst.Row) error {
	if fingerprintResult(rows, e.ordered) == e.fp {
		return nil
	}
	want := renderCells(e.rows, e.ordered)
	got := renderResult(rows, e.ordered)
	for i := 0; i < len(want) || i < len(got); i++ {
		w, g := "<none>", "<none>"
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			return fmt.Errorf("oracle mismatch at row %d of %d expected / %d returned: want %s, got %s",
				i, len(want), len(got), w, g)
		}
	}
	return fmt.Errorf("oracle mismatch: fingerprints differ over %d rows", len(got))
}

func renderNum(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func renderCells(rows [][]cell, ordered bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, c := range r {
			switch v := c.(type) {
			case nil:
				parts[j] = "NULL"
			case int64:
				parts[j] = strconv.FormatInt(v, 10)
			case float64:
				parts[j] = renderNum(v)
			case string:
				parts[j] = strconv.Quote(v)
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

func renderResult(rows []starburst.Row, ordered bool) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			switch {
			case v.IsNull():
				parts[j] = "NULL"
			case v.Type() == datum.TInt:
				parts[j] = strconv.FormatInt(v.Int(), 10)
			case v.Type() == datum.TFloat:
				parts[j] = renderNum(v.Float())
			case v.Type() == datum.TString:
				parts[j] = strconv.Quote(v.Str())
			default:
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	if !ordered {
		sort.Strings(out)
	}
	return out
}

// ---------------------------------------------------------------------
// star_scan statements and their oracles

// starStatements are the eight fixed read statements of star_scan, in
// round-robin order (S1..S8).
var starStatements = []string{
	// S1 scan -> filter -> group: the fused columnar kernels.
	"SELECT lo_shipmode, COUNT(*), SUM(lo_revenue) FROM lineorder WHERE lo_discount < 5 GROUP BY lo_shipmode",
	// S2 ~1%-selective pushed filter.
	"SELECT COUNT(*), SUM(lo_price) FROM lineorder WHERE lo_quantity = 17 AND lo_discount < 5",
	// S3 two-way star join with GROUP BY.
	"SELECT d_year, SUM(lo_revenue) FROM lineorder, dates WHERE lo_datekey = d_datekey AND lo_discount >= 8 GROUP BY d_year",
	// S4 three-way star join.
	"SELECT c_region, d_year, SUM(lo_revenue) FROM lineorder, customer, dates WHERE lo_custkey = c_custkey AND lo_datekey = d_datekey AND c_segment = 'AUTO' GROUP BY c_region, d_year",
	// S5 four-way star join.
	"SELECT d_year, p_category, SUM(lo_revenue), COUNT(*) FROM lineorder, customer, part, dates WHERE lo_custkey = c_custkey AND lo_partkey = p_partkey AND lo_datekey = d_datekey AND c_region = 'ASIA' AND p_size < 10 GROUP BY d_year, p_category",
	// S6 top-N.
	"SELECT lo_orderkey, lo_revenue FROM lineorder WHERE lo_quantity > 45 ORDER BY lo_revenue DESC, lo_orderkey LIMIT 20",
	// S7 correlated IN semi-join (the paper's Figure 1 shape on the star schema).
	"SELECT c_custkey, c_nation FROM customer c WHERE c_segment = 'MACHINE' AND c_nation = 'N7' AND c_custkey IN (SELECT lo_custkey FROM lineorder l WHERE l.lo_discount = 10 AND l.lo_quantity > c.c_minqty)",
	// S8 left-outer anti-join.
	"SELECT p.p_partkey FROM part p LEFT OUTER JOIN lineorder l ON p.p_partkey = l.lo_partkey AND l.lo_quantity = 50 WHERE l.lo_orderkey IS NULL",
}

// scanGroupExpected is the oracle for S1 over any lineorder rows; the
// durable_commit reader reuses it.
func scanGroupExpected(lo []loRow) *expect {
	type agg struct{ n, sum int64 }
	groups := map[string]*agg{}
	for _, r := range lo {
		if r.discount < 5 {
			a := groups[r.shipmode]
			if a == nil {
				a = &agg{}
				groups[r.shipmode] = a
			}
			a.n++
			a.sum += r.revenue
		}
	}
	var rows [][]cell
	for k, a := range groups {
		rows = append(rows, []cell{k, a.n, a.sum})
	}
	return newExpect(rows, false)
}

func starExpected(d *starData) []*expect {
	cust := map[int64]custRow{}
	for _, c := range d.cust {
		cust[c.custkey] = c
	}
	part := map[int64]partRow{}
	for _, p := range d.part {
		part[p.partkey] = p
	}
	dates := map[int64]dateRow{}
	for _, dt := range d.dates {
		dates[dt.datekey] = dt
	}
	out := make([]*expect, len(starStatements))
	out[0] = scanGroupExpected(d.lo)

	var n2, sum2 int64
	for _, r := range d.lo {
		if r.quantity == 17 && r.discount < 5 {
			n2++
			sum2 += r.price
		}
	}
	row2 := []cell{n2, sum2}
	if n2 == 0 {
		row2[1] = nil
	}
	out[1] = newExpect([][]cell{row2}, false)

	byYear := map[int64]int64{}
	for _, r := range d.lo {
		if dt, ok := dates[r.datekey]; ok && r.discount >= 8 {
			byYear[dt.year] += r.revenue
		}
	}
	var rows3 [][]cell
	for y, s := range byYear {
		rows3 = append(rows3, []cell{y, s})
	}
	out[2] = newExpect(rows3, false)

	type ry struct {
		region string
		year   int64
	}
	byRY := map[ry]int64{}
	for _, r := range d.lo {
		c, okc := cust[r.custkey]
		dt, okd := dates[r.datekey]
		if okc && okd && c.segment == "AUTO" {
			byRY[ry{c.region, dt.year}] += r.revenue
		}
	}
	var rows4 [][]cell
	for k, s := range byRY {
		rows4 = append(rows4, []cell{k.region, k.year, s})
	}
	out[3] = newExpect(rows4, false)

	type yc struct {
		year int64
		cat  string
	}
	type agg struct{ sum, n int64 }
	byYC := map[yc]*agg{}
	for _, r := range d.lo {
		c, okc := cust[r.custkey]
		p, okp := part[r.partkey]
		dt, okd := dates[r.datekey]
		if okc && okp && okd && c.region == "ASIA" && p.size < 10 {
			k := yc{dt.year, p.category}
			a := byYC[k]
			if a == nil {
				a = &agg{}
				byYC[k] = a
			}
			a.sum += r.revenue
			a.n++
		}
	}
	var rows5 [][]cell
	for k, a := range byYC {
		rows5 = append(rows5, []cell{k.year, k.cat, a.sum, a.n})
	}
	out[4] = newExpect(rows5, false)

	var top []loRow
	for _, r := range d.lo {
		if r.quantity > 45 {
			top = append(top, r)
		}
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].revenue != top[j].revenue {
			return top[i].revenue > top[j].revenue
		}
		return top[i].orderkey < top[j].orderkey
	})
	if len(top) > 20 {
		top = top[:20]
	}
	var rows6 [][]cell
	for _, r := range top {
		rows6 = append(rows6, []cell{r.orderkey, r.revenue})
	}
	out[5] = newExpect(rows6, true)

	// S7: per customer, the largest discount-10 quantity ordered decides
	// whether some lineorder row exceeds c_minqty.
	maxQty := map[int64]int64{}
	for _, r := range d.lo {
		if r.discount == 10 && r.quantity > maxQty[r.custkey] {
			maxQty[r.custkey] = r.quantity
		}
	}
	var rows7 [][]cell
	for _, c := range d.cust {
		if c.segment == "MACHINE" && c.nation == "N7" && maxQty[c.custkey] > c.minqty {
			rows7 = append(rows7, []cell{c.custkey, c.nation})
		}
	}
	out[6] = newExpect(rows7, false)

	ordered50 := map[int64]bool{}
	for _, r := range d.lo {
		if r.quantity == 50 {
			ordered50[r.partkey] = true
		}
	}
	var rows8 [][]cell
	for _, p := range d.part {
		if !ordered50[p.partkey] {
			rows8 = append(rows8, []cell{p.partkey})
		}
	}
	out[7] = newExpect(rows8, false)
	return out
}

// ---------------------------------------------------------------------
// adhoc_compile statements and their oracles

// adhocStatements are the twelve fixed read statements of
// adhoc_compile, in round-robin order (A1..A12).
var adhocStatements = []string{
	// A1 the paper's Figure 1/2 correlated IN subquery.
	"SELECT partno, price, order_qty FROM quotations Q1 WHERE Q1.partno IN (SELECT partno FROM inventory Q3 WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU')",
	// A2 view over view (view merge).
	"SELECT partno, order_qty FROM cheap_small WHERE partno < 9",
	// A3 EXISTS.
	"SELECT partno, type FROM inventory i WHERE EXISTS (SELECT 1 FROM quotations q WHERE q.partno = i.partno AND q.price > 700)",
	// A4 quantified ANY.
	"SELECT partno FROM inventory i WHERE onhand_qty > ANY (SELECT order_qty FROM quotations q WHERE q.suppno < 5 AND q.partno = i.partno)",
	// A5 quantified ALL.
	"SELECT partno FROM inventory i WHERE onhand_qty * 3 >= ALL (SELECT order_qty FROM quotations q WHERE q.partno = i.partno)",
	// A6 six-way join chain (join enumeration).
	"SELECT a0.v, a5.v FROM t0 a0, t1 a1, t2 a2, t3 a3, t4 a4, t5 a5 WHERE a0.k = a1.k AND a1.k = a2.k AND a2.k = a3.k AND a3.k = a4.k AND a4.k = a5.k AND a0.v < 50",
	// A7 star join with HAVING.
	"SELECT i.type, s.city, COUNT(*), SUM(q.order_qty) FROM quotations q, inventory i, suppliers s WHERE q.partno = i.partno AND q.suppno = s.suppno AND q.price < 600 GROUP BY i.type, s.city HAVING COUNT(*) > 1",
	// A8 UNION / EXCEPT / INTERSECT.
	"SELECT partno FROM quotations WHERE price < 300 UNION SELECT partno FROM inventory WHERE type = 'CPU' EXCEPT SELECT partno FROM quotations WHERE suppno = 1 INTERSECT SELECT partno FROM inventory WHERE onhand_qty > 25",
	// A9 WITH RECURSIVE over the parts tree.
	"WITH RECURSIVE sub(id, weight) AS (SELECT id, weight FROM tree WHERE parent = 1 UNION SELECT t.id, t.weight FROM sub s, tree t WHERE t.parent = s.id) SELECT COUNT(*), SUM(weight) FROM sub",
	// A10 left outer join.
	"SELECT i.partno, q.price FROM inventory i LEFT OUTER JOIN quotations q ON i.partno = q.partno AND q.price > 800 WHERE i.type = 'RAM'",
	// A11 CASE and LIKE.
	"SELECT partno, CASE WHEN onhand_qty < 10 THEN 'LOW' WHEN onhand_qty < 30 THEN 'MID' ELSE 'HIGH' END FROM inventory WHERE type LIKE 'C%' OR type LIKE '%IC'",
	// A12 DISTINCT with ORDER BY.
	"SELECT DISTINCT suppno, order_qty FROM quotations WHERE price > 400 ORDER BY suppno, order_qty DESC",
}

func adhocExpected(d *paperData) []*expect {
	out := make([]*expect, len(adhocStatements))
	inv := map[int64]invRow{}
	for _, i := range d.inv {
		inv[i.partno] = i
	}
	quotByPart := map[int64][]quotRow{}
	for _, q := range d.quot {
		quotByPart[q.partno] = append(quotByPart[q.partno], q)
	}

	var a1 [][]cell
	for _, q := range d.quot {
		if i, ok := inv[q.partno]; ok && i.onhand < q.orderQty && i.typ == "CPU" {
			a1 = append(a1, []cell{q.partno, q.price, q.orderQty})
		}
	}
	out[0] = newExpect(a1, false)

	var a2 [][]cell
	for _, q := range d.quot {
		if q.price < 500 && q.orderQty < 50 && q.partno < 9 {
			a2 = append(a2, []cell{q.partno, q.orderQty})
		}
	}
	out[1] = newExpect(a2, false)

	var a3, a4, a5 [][]cell
	for _, i := range d.inv {
		exists, anyLess, allGE := false, false, true
		for _, q := range quotByPart[i.partno] {
			if q.price > 700 {
				exists = true
			}
			if q.suppno < 5 && i.onhand > q.orderQty {
				anyLess = true
			}
			if i.onhand*3 < q.orderQty {
				allGE = false
			}
		}
		if exists {
			a3 = append(a3, []cell{i.partno, i.typ})
		}
		if anyLess {
			a4 = append(a4, []cell{i.partno})
		}
		if allGE {
			a5 = append(a5, []cell{i.partno})
		}
	}
	out[2], out[3], out[4] = newExpect(a3, false), newExpect(a4, false), newExpect(a5, false)

	var a6 [][]cell
	for _, r0 := range d.chain[0] {
		if r0.v >= 50 {
			continue
		}
		// Keys are unique per chain table, so the chain joins at most
		// one row from each.
		k, ok := r0.k, true
		var last kvRow
		for t := 1; t < len(d.chain) && ok; t++ {
			ok = false
			for _, r := range d.chain[t] {
				if r.k == k {
					last, ok = r, true
					break
				}
			}
		}
		if ok {
			a6 = append(a6, []cell{r0.v, last.v})
		}
	}
	out[5] = newExpect(a6, false)

	supp := map[int64]suppRow{}
	for _, s := range d.supp {
		supp[s.suppno] = s
	}
	type tc struct{ typ, city string }
	type agg struct{ n, sum int64 }
	groups := map[tc]*agg{}
	for _, q := range d.quot {
		i, oki := inv[q.partno]
		s, oks := supp[q.suppno]
		if oki && oks && q.price < 600 {
			k := tc{i.typ, s.city}
			a := groups[k]
			if a == nil {
				a = &agg{}
				groups[k] = a
			}
			a.n++
			a.sum += q.orderQty
		}
	}
	var a7 [][]cell
	for k, a := range groups {
		if a.n > 1 {
			a7 = append(a7, []cell{k.typ, k.city, a.n, a.sum})
		}
	}
	out[6] = newExpect(a7, false)

	// A8 = (A UNION B) EXCEPT (C INTERSECT D): INTERSECT binds tighter.
	union, c, dset := map[int64]bool{}, map[int64]bool{}, map[int64]bool{}
	for _, q := range d.quot {
		if q.price < 300 {
			union[q.partno] = true
		}
		if q.suppno == 1 {
			c[q.partno] = true
		}
	}
	for _, i := range d.inv {
		if i.typ == "CPU" {
			union[i.partno] = true
		}
		if i.onhand > 25 {
			dset[i.partno] = true
		}
	}
	var a8 [][]cell
	for p := range union {
		if !(c[p] && dset[p]) {
			a8 = append(a8, []cell{p})
		}
	}
	out[7] = newExpect(a8, false)

	// A9: descendants of node 1 (UNION removes duplicates; ids are unique).
	seen := map[int64]bool{}
	frontier := []int64{1}
	var n9, sum9 int64
	for len(frontier) > 0 {
		var next []int64
		for _, p := range frontier {
			for _, t := range d.tree {
				if t.parent == p && !seen[t.id] {
					seen[t.id] = true
					n9++
					sum9 += t.weight
					next = append(next, t.id)
				}
			}
		}
		frontier = next
	}
	row9 := []cell{n9, sum9}
	if n9 == 0 {
		row9[1] = nil
	}
	out[8] = newExpect([][]cell{row9}, false)

	var a10, a11 [][]cell
	for _, i := range d.inv {
		if i.typ == "RAM" {
			matched := false
			for _, q := range quotByPart[i.partno] {
				if q.price > 800 {
					a10 = append(a10, []cell{i.partno, q.price})
					matched = true
				}
			}
			if !matched {
				a10 = append(a10, []cell{i.partno, nil})
			}
		}
		if strings.HasPrefix(i.typ, "C") || strings.HasSuffix(i.typ, "IC") {
			level := "HIGH"
			if i.onhand < 10 {
				level = "LOW"
			} else if i.onhand < 30 {
				level = "MID"
			}
			a11 = append(a11, []cell{i.partno, level})
		}
	}
	out[9], out[10] = newExpect(a10, false), newExpect(a11, false)

	type so struct{ suppno, qty int64 }
	distinct := map[so]bool{}
	for _, q := range d.quot {
		if q.price > 400 {
			distinct[so{q.suppno, q.orderQty}] = true
		}
	}
	var pairs []so
	for p := range distinct {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].suppno != pairs[j].suppno {
			return pairs[i].suppno < pairs[j].suppno
		}
		return pairs[i].qty > pairs[j].qty
	})
	var a12 [][]cell
	for _, p := range pairs {
		a12 = append(a12, []cell{p.suppno, p.qty})
	}
	out[11] = newExpect(a12, true)
	return out
}
