//lintfixture:path repro

// Package fixapi seeds api-bypass violations: sql.Parse called outside
// the statement core, and txn.Manager.Begin called outside the
// transaction constructor, under the simulated root import path.
package fixapi

import (
	"repro/internal/sql"
	"repro/internal/txn"
)

type DB struct{ mgr *txn.Manager }

// The statement core may parse.
func (db *DB) query(q string) (sql.Statement, error) { return sql.Parse(q) }

// A second core, however blessed it once was, may not.
func (db *DB) prepare(q string) (sql.Statement, error) {
	return sql.Parse(q) // want api-bypass "DB.prepare calls sql.Parse outside the statement core"
}

// The transaction constructor may mint transactions.
func (db *DB) beginTx() *txn.Txn { return db.mgr.Begin(false) }

// An exported entry point parsing for itself bypasses the core.
func (db *DB) RunDirect(q string) error {
	_, err := sql.Parse(q) // want api-bypass "DB.RunDirect calls sql.Parse outside the statement core"
	return err
}

// So does any other helper in the root package.
func sideDoor(q string) {
	sql.Parse(q) // want api-bypass "sideDoor calls sql.Parse outside the statement core"
}

// Minting a transaction outside the constructor skips the snapshot and
// durability plumbing.
func (db *DB) SideBegin() *txn.Txn {
	return db.mgr.Begin(false) // want api-bypass "DB.SideBegin calls txn Manager.Begin outside the transaction constructor"
}

func suppressedDoor(q string) {
	//lint:ignore api-bypass fixture: demonstrates a justified suppression
	_, _ = sql.Parse(q)
}

func suppressedBegin(db *DB) {
	//lint:ignore api-bypass fixture: demonstrates a justified suppression
	db.mgr.Begin(true)
}
