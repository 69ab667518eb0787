// Command quickstart walks the paper's running example through every
// phase of Figure 1: the quotations/inventory query of section 4 is
// parsed into QGM (Figure 2a), rewritten by Rule 1 + Rule 2 into the
// merged form (Figure 2b), optimized into a query evaluation plan, and
// executed by the QES.
package main

import (
	"context"
	"fmt"

	starburst "repro"
)

func main() {
	db := starburst.Open()

	fmt.Println("=== Data definition ===")
	ddl := []string{
		`CREATE TABLE quotations (partno INT NOT NULL, price FLOAT, order_qty INT, suppno INT)`,
		`CREATE TABLE inventory (partno INT NOT NULL, onhand_qty INT, type STRING)`,
		// The unique index is what lets Rule 1 prove "at most one tuple
		// of T2 satisfies the predicate".
		`CREATE UNIQUE INDEX inv_pk ON inventory (partno)`,
	}
	for _, q := range ddl {
		db.MustExec(q, nil)
		fmt.Println(" ", q)
	}

	fmt.Println("\n=== Loading sample data ===")
	for i := 1; i <= 8; i++ {
		db.MustExec(fmt.Sprintf(
			"INSERT INTO quotations VALUES (%d, %d.50, %d, %d)", i, 10*i, 5*i, i%3), nil)
	}
	for i := 1; i <= 5; i++ {
		typ := "'CPU'"
		if i%2 == 0 {
			typ = "'DISK'"
		}
		db.MustExec(fmt.Sprintf(
			"INSERT INTO inventory VALUES (%d, %d, %s)", i, i, typ), nil)
	}
	db.MustExec("ANALYZE quotations", nil)
	db.MustExec("ANALYZE inventory", nil)
	fmt.Println("  8 quotations, 5 inventory rows")

	// The exact query of section 4 / Figure 2.
	query := `SELECT partno, price, order_qty FROM quotations Q1
	WHERE Q1.partno IN
	  (SELECT partno FROM inventory Q3
	   WHERE Q3.onhand_qty < Q1.order_qty AND Q3.type = 'CPU')`

	fmt.Println("\n=== EXPLAIN (all compilation phases, Figure 1) ===")
	ex := db.MustExec("EXPLAIN "+query, nil)
	for _, row := range ex.Rows {
		fmt.Println(row[0].Str())
	}

	fmt.Println("=== Execution ===")
	res := db.MustExec(query, nil)
	fmt.Printf("%-8s %-8s %-9s\n", res.Columns[0], res.Columns[1], res.Columns[2])
	for _, row := range res.Rows {
		fmt.Printf("%-8v %-8v %-9v\n", row[0], row[1], row[2])
	}

	// Compilation and execution may be separated in time (section 3).
	fmt.Println("\n=== Prepared statement with a host variable ===")
	stmt, err := db.Prepare(
		"SELECT partno FROM quotations WHERE order_qty > :minq ORDER BY partno")
	if err != nil {
		panic(err)
	}
	for _, q := range []int64{20, 30} {
		r, err := stmt.Query(context.Background(), map[string]starburst.Value{"minq": starburst.NewInt(q)})
		if err != nil {
			panic(err)
		}
		fmt.Printf("order_qty > %d:", q)
		for _, row := range r.Rows {
			fmt.Printf(" %v", row[0])
		}
		fmt.Println()
	}
}
