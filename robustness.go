package starburst

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"repro/internal/datum"
	"repro/internal/exec"
	"repro/internal/storage"
)

// This file is the robustness surface of the DB: per-statement resource
// limits, context-based cancellation, deterministic storage fault
// injection, and a panic barrier that converts any panic escaping a
// compilation phase or a QES operator — most likely a DBC extension —
// into a structured error instead of crashing the process.

// Re-exported robustness types.
type (
	// Limits are per-statement execution budgets (rows, memory, time);
	// zero values are unlimited.
	Limits = exec.Limits
	// ResourceError reports an exhausted execution budget.
	ResourceError = exec.ResourceError
	// Fault is one injected storage failure.
	Fault = storage.Fault
	// FaultError is the typed error produced by an injected fault.
	FaultError = storage.FaultError
	// FaultOp names an injectable storage operation.
	FaultOp = storage.FaultOp
	// CrashError is the panic value of a crash fault: the simulated
	// process kill the recovery torture tests drive. It reaches callers
	// wrapped in a *QueryError (Value/Unwrap).
	CrashError = storage.CrashError
	// TypeError reports a value of a type its target column cannot hold,
	// such as a host variable bound to a STRING for an INT column.
	TypeError = datum.TypeError
)

// The injectable storage operations, re-exported.
const (
	FaultScan     = storage.FaultScan
	FaultInsert   = storage.FaultInsert
	FaultDelete   = storage.FaultDelete
	FaultUpdate   = storage.FaultUpdate
	FaultIxInsert = storage.FaultIxInsert
	FaultIxDelete = storage.FaultIxDelete
	FaultIxSearch = storage.FaultIxSearch
	// Durability crash points (WithDataDir stores only): checked at
	// every WAL append, around every WAL fsync, and before every
	// checkpoint page write. With Fault.Crash set they panic with a
	// *CrashError, poisoning the store until it is reopened.
	FaultWALAppend = storage.FaultWALAppend
	FaultWALSync   = storage.FaultWALSync
	FaultPageWrite = storage.FaultPageWrite
)

// QueryError is the uniform error type of the public API: every error
// a statement entry point returns — parse failures, semantic errors,
// DDL conflicts, exhausted budgets, injected faults, and panics caught
// at the statement boundary — is (or wraps into) a *QueryError naming
// the phase it came from. Typed causes stay reachable through
// errors.As/errors.Is: ResourceError, FaultError, AuditError,
// context.Canceled and friends unwrap through it.
type QueryError struct {
	// Phase is where the error escaped: parse, rewrite, optimize, exec,
	// or ddl.
	Phase string
	// Err is the underlying error for ordinary (non-panic) failures.
	Err error
	// Operator is the failing QES operator type (e.g. "scanOp"), empty
	// when the error did not originate under an operator. Set only for
	// captured panics.
	Operator string
	// Value is the recovered panic value; nil for ordinary errors.
	Value any
	// Stack is the goroutine stack captured at recovery; nil for
	// ordinary errors.
	Stack []byte
}

func (e *QueryError) Error() string {
	if e.Err != nil {
		// Pass the underlying message through verbatim: the phase is
		// structured data, not message decoration.
		return e.Err.Error()
	}
	if e.Operator != "" {
		return fmt.Sprintf("starburst: panic during %s (operator %s): %v", e.Phase, e.Operator, e.Value)
	}
	return fmt.Sprintf("starburst: panic during %s: %v", e.Phase, e.Value)
}

// Unwrap exposes the underlying error (or the panic value when it was
// an error), keeping errors.As/errors.Is chains intact.
func (e *QueryError) Unwrap() error {
	if e.Err != nil {
		return e.Err
	}
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// wrapQueryError folds a plain error into a *QueryError carrying the
// phase it escaped from; errors that already are (or wrap) a
// *QueryError pass through unchanged. The statement entry points defer
// it after the recover barrier, making *QueryError the single error
// type of the public API.
func wrapQueryError(phase string, err error) error {
	if err == nil {
		return nil
	}
	var qe *QueryError
	if errors.As(err, &qe) {
		return err
	}
	return &QueryError{Phase: phase, Err: err}
}

// recoverQueryError is the single recover barrier: statement entry
// points defer it with a pointer to their phase marker and error return.
func recoverQueryError(phase *string, err *error) {
	p := recover()
	if p == nil {
		return
	}
	stack := debug.Stack()
	*err = &QueryError{Phase: *phase, Operator: operatorFromStack(stack), Value: p, Stack: stack}
}

// operatorFromStack attributes a panic to the innermost QES operator
// method on the stack, e.g. "repro/internal/exec.(*scanOp).Next(...)".
func operatorFromStack(stack []byte) string {
	for _, line := range strings.Split(string(stack), "\n") {
		line = strings.TrimSpace(line)
		rest, ok := strings.CutPrefix(line, "repro/internal/exec.(*")
		if !ok {
			continue
		}
		if name, _, ok := strings.Cut(rest, ")"); ok {
			return name
		}
	}
	return ""
}

// ---------------------------------------------------------------------
// Fault injection

// InjectFaults arms storage faults, decorating this DB's storage with a
// fault injector on first use: every registered storage manager and
// access method is wrapped through the registries (the same extension
// path a DBC uses), and existing tables and indexes are wrapped in
// place. Deterministic: the (After+1)th matching operation fails.
func (db *DB) InjectFaults(faults ...*Fault) {
	// Attaching rewraps live storage objects in place — exclusive
	// ownership of the engine, so no statement is in flight over an
	// object being rewrapped (the attach also bumps the catalog version,
	// invalidating cached plans compiled over unwrapped storage).
	db.lockAdminExcl(nil)
	defer db.adminMu.Unlock()
	if db.faults == nil {
		db.faults = storage.NewFaultInjector()
		db.cat.AttachFaults(db.faults)
		fi := db.faults
		db.metrics.GaugeFunc(MetricFaultsFired, fi.Fired)
		if db.store != nil {
			db.store.SetFaultInjector(fi)
		}
	}
	db.faults.Add(faults...)
}

// ClearFaults disarms every injected fault; the injector stays attached
// (its counters keep running) until DetachFaults.
func (db *DB) ClearFaults() {
	if db.faults != nil {
		db.faults.ClearFaults()
	}
}

// DetachFaults removes fault decoration entirely.
func (db *DB) DetachFaults() {
	db.lockAdminExcl(nil)
	defer db.adminMu.Unlock()
	if db.faults != nil {
		db.cat.DetachFaults()
		if db.store != nil {
			db.store.SetFaultInjector(nil)
		}
		db.faults = nil
	}
}

// Faults exposes the attached injector (nil before InjectFaults) for
// inspecting operation counts and open-iterator tracking.
func (db *DB) Faults() *storage.FaultInjector { return db.faults }
