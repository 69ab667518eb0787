package disk

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datum"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Store is one durable data directory: a WAL, a catalog snapshot, and
// one page file per table, served through a bounded buffer pool.
//
// Protocol summary (details in DESIGN.md, "Durability"):
//
//   - No-steal, redo-only. Dirty pages are written back only at
//     checkpoints; the WAL carries physiological redo records grouped
//     by statement, and a statement's group replays only if its commit
//     record reached the disk.
//   - Statements bracket their mutations with BeginStmt/CommitStmt/
//     AbortStmt. Mutations outside a bracket auto-commit.
//   - A checkpoint (triggered by commit count, WAL volume, or dirty-
//     page pressure, always at a commit boundary) logs full-page images
//     of every dirty frame, fsyncs the WAL, writes the pages back,
//     fsyncs the data files, snapshots the catalog, and rotates the
//     WAL.
//
// Lock order: Store.writeMu → Store.mu → tableFile.mu → pool.mu;
// Store.waitsMu is a leaf.
type Store struct {
	fs   FS
	dir  string
	opts Options

	pool *pool

	// writeMu serializes writing statements (the statement bracket) and
	// checkpoints. Readers never take it.
	writeMu sync.Mutex

	// mu guards the WAL writer, the table map, the open statement, the
	// open-transaction set and the checkpoint counters.
	mu      sync.Mutex
	wal     *walWriter
	walFile File
	tables  map[string]*tableFile
	curStmt *stmt
	stmtBuf stmt // what curStmt points at: writeMu serializes groups
	nextID  uint64
	fi      *storage.FaultInjector
	// tombs holds the logged tombstones whose records are not yet
	// reaped; a checkpoint carries them into the rotated log.
	tombs map[tombKey]bool
	// openTxns tracks explicit transactions with tagged statement groups
	// in this WAL that have not yet committed or aborted. While any is
	// open, checkpoints are deferred (ckptPending): the buffer pool holds
	// their uncommitted page state, and a checkpoint would both persist
	// it unfiltered and rotate their records away.
	openTxns    map[uint64]bool
	ckptPending bool

	snapshotFn func() ([]byte, error)

	// Carried from Open until Recover consumes them.
	scanned    []*walRecord
	snapSchema []byte
	snapLSN    uint64

	attachMode bool // Create attaches to existing files (pre-recovery)
	recovering bool
	crashed    atomic.Bool

	commitsSinceCkpt  int
	walBytesSinceCkpt int64

	// Cumulative counters (survive WAL rotation), reported via Stats.
	statWALBytes   int64
	statWALRecords int64
	statWALSyncs   int64
	statCkpts      int64

	// waitProf, when set, receives WAL and buffer-pool wait events
	// (DB-wide, always on). stmtWaits additionally attributes WAL waits
	// to the statement currently holding the write bracket — writeMu
	// serializes writers, so one pointer is enough. waitsMu guards it
	// from load to Record: a writer outside the bracket (the version
	// GC joining the open group) may record a wait, and once the
	// bracket detaches the set no wait lands in it, so the engine may
	// reuse it.
	waitProf  *obs.WaitProfile
	waitsMu   sync.Mutex
	stmtWaits *obs.WaitSet
}

// Options configures a Store; zero values select defaults.
type Options struct {
	// PageSize is the page size in bytes (default DefaultPageSize).
	PageSize int
	// PoolPages is the buffer pool budget in frames (default 64).
	PoolPages int
	// CheckpointEvery checkpoints after N committed statements
	// (default 64).
	CheckpointEvery int
	// CheckpointWALBytes checkpoints once the WAL grows past this many
	// bytes since the last checkpoint (default 1 MiB).
	CheckpointWALBytes int64
}

func (o *Options) defaults() {
	if o.PageSize <= 0 {
		o.PageSize = DefaultPageSize
	}
	if o.PoolPages <= 0 {
		o.PoolPages = 64
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 64
	}
	if o.CheckpointWALBytes <= 0 {
		o.CheckpointWALBytes = 1 << 20
	}
}

// ErrCrashed is returned by every operation after an injected crash
// fault fired: the store is poisoned and the directory must be reopened
// to recover.
var ErrCrashed = errors.New("disk: store has crashed; reopen the data directory to recover")

// stmt is one open statement group. txnID tags the group with its
// owning explicit transaction; 0 means standalone (auto-commit). A reap
// group (BeginReap) only deletes tombstoned records.
type stmt struct {
	id    uint64
	txnID uint64
	wrote bool
	reap  bool
}

// tombKey names a tombstoned record.
type tombKey struct {
	table string
	rid   storage.RID
}

// tableFile is the in-memory state of one table's page file.
type tableFile struct {
	mu       sync.RWMutex
	name     string // canonical (upper-case) table name
	fileName string
	file     File
	numCols  int

	pages int64
	rows  int64
	// free is the free-space map: per page, the largest insertable
	// record. lastIns remembers the last page inserted into.
	free    []int
	lastIns int
	// rec is the record buffer inserts and updates encode into; the page
	// and the WAL frame copy it before tf.mu is released.
	rec []byte

	// pendingRepair marks pages that failed their checksum during
	// recovery and await a full-page image from the WAL.
	pendingRepair map[uint32]bool
}

// snapshotFile is the JSON layout of catalog.json: the engine's schema
// blob plus the LSN horizon it reflects (DDL records at or below it are
// already folded in and must not replay).
type snapshotFile struct {
	LastLSN uint64          `json:"last_lsn"`
	Schema  json.RawMessage `json:"schema,omitempty"`
}

const (
	walFileName     = "wal.log"
	catalogFileName = "catalog.json"
)

// tableFileName is the page file of the table whose folded name is
// key. A plain name — one whose lower-cased form folds back to key and
// holds no '/', '%' or NUL — is its lower-cased self. Any other is
// spelled byte by byte: ASCII letters lower-cased, digits and '_' kept,
// every other byte as %XX. That covers a path separator and a letter
// such as the Kelvin sign, which lower-cases to another name's 'k'. A
// key holds no lower-case ASCII letter and a plain name no '%', so no
// two keys share a file.
func tableFileName(key string) string {
	lower := ident.Lower(key)
	if ident.Upper(lower) == key && !strings.ContainsAny(key, "/%\x00") {
		return lower + ".tbl"
	}
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		switch c := key[i]; {
		case 'A' <= c && c <= 'Z':
			b.WriteByte(c + ('a' - 'A'))
		case '0' <= c && c <= '9' || c == '_':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String() + ".tbl"
}

// Open opens or creates a data directory. The returned store is in
// attach mode: table creates bind to existing files without truncating
// them. The caller must recreate the snapshot schema (SnapshotSchema)
// and then call Recover before doing anything else.
func Open(dir string, fsys FS, opts Options) (*Store, error) {
	opts.defaults()
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("disk: create data dir: %w", err)
	}
	walPath := filepath.Join(dir, walFileName)
	size, err := fsys.Stat(walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("disk: stat wal: %w", err)
	}
	f, err := fsys.OpenFile(walPath)
	if err != nil {
		return nil, fmt.Errorf("disk: open wal: %w", err)
	}
	recs, intactEnd, walLast, err := walScan(f, size)
	if err != nil {
		return nil, err
	}

	s := &Store{
		fs:         fsys,
		dir:        dir,
		opts:       opts,
		pool:       newPool(opts.PoolPages),
		walFile:    f,
		tables:     map[string]*tableFile{},
		tombs:      map[tombKey]bool{},
		scanned:    recs,
		attachMode: true,
	}
	if err := s.readSnapshotFile(); err != nil {
		return nil, err
	}

	if intactEnd == 0 {
		// Empty or unrecognizable log: start a fresh one. LSNs continue
		// past the snapshot horizon so they stay monotonic across WAL
		// rotations.
		w, err := newWalFile(f)
		if err != nil {
			return nil, err
		}
		w.nextLSN = s.snapLSN + 1
		w.syncedLSN = s.snapLSN
		s.wal = w
	} else {
		last := walLast
		if s.snapLSN > last {
			last = s.snapLSN
		}
		s.wal = openWalWriter(f, intactEnd, last)
	}
	return s, nil
}

func (s *Store) readSnapshotFile() (err error) {
	path := filepath.Join(s.dir, catalogFileName)
	size, err := s.fs.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("disk: stat catalog snapshot: %w", err)
	}
	f, err := s.fs.OpenFile(path)
	if err != nil {
		return fmt.Errorf("disk: open catalog snapshot: %w", err)
	}
	defer func() {
		err = errors.Join(err, f.Close())
	}()
	buf := make([]byte, size)
	if n, rerr := f.ReadAt(buf, 0); int64(n) != size {
		return fmt.Errorf("disk: read catalog snapshot: %v", rerr)
	}
	var snap snapshotFile
	if err := json.Unmarshal(buf, &snap); err != nil {
		return fmt.Errorf("disk: parse catalog snapshot: %w", err)
	}
	s.snapSchema = snap.Schema
	s.snapLSN = snap.LastLSN
	return nil
}

// SnapshotSchema returns the engine schema blob from the catalog
// snapshot read at Open, or nil for a fresh directory.
func (s *Store) SnapshotSchema() []byte { return s.snapSchema }

// SetSnapshot installs the callback that serializes the engine's
// catalog at checkpoint time.
func (s *Store) SetSnapshot(fn func() ([]byte, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshotFn = fn
}

// SetFaultInjector wires (or, with nil, unwires) crash-point fault
// injection into the store's WAL and page-write boundaries.
func (s *Store) SetFaultInjector(fi *storage.FaultInjector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fi = fi
}

// Crashed reports whether an injected crash fault has poisoned the
// store.
func (s *Store) Crashed() bool { return s.crashed.Load() }

// Stats is a point-in-time snapshot of the store's I/O counters.
type Stats struct {
	PoolHits      int64
	PoolMisses    int64
	PoolEvictions int64
	PoolOverflow  int64
	WALRecords    int64
	WALBytes      int64
	WALSyncs      int64
	Checkpoints   int64
	Tables        int
}

// Stats returns current counters.
func (s *Store) Stats() Stats {
	h, m, e, o := s.pool.stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		PoolHits: h, PoolMisses: m, PoolEvictions: e, PoolOverflow: o,
		WALRecords:  s.statWALRecords,
		WALBytes:    s.statWALBytes,
		WALSyncs:    s.statWALSyncs,
		Checkpoints: s.statCkpts,
		Tables:      len(s.tables),
	}
}

// ---------------------------------------------------------------------
// Fault points

// checkFault is the crash boundary: a non-crash fault comes back as an
// error; a crash fault poisons the store and panics with the
// *storage.CrashError (the engine's panic barrier turns it into a
// QueryError, and the torture harness then simulates the machine
// dying).
func (s *Store) checkFault(table string, op storage.FaultOp) error {
	s.mu.Lock()
	fi := s.fi
	s.mu.Unlock()
	err := fi.CheckOp(table, op)
	if err == nil {
		return nil // before ce, which errors.As moves to the heap
	}
	var ce *storage.CrashError
	if errors.As(err, &ce) {
		s.crash(ce)
	}
	return err
}

// checkPageWrite is checkFault for the data-page write-back boundary,
// with the torn-page twist: before the simulated kill, half of the
// in-flight page image is made durable.
func (s *Store) checkPageWrite(tf *tableFile, pageNo uint32, img []byte) error {
	s.mu.Lock()
	fi := s.fi
	s.mu.Unlock()
	err := fi.CheckOp(tf.name, storage.FaultPageWrite)
	var ce *storage.CrashError
	if errors.As(err, &ce) {
		if ce.Torn {
			if tw, ok := s.fs.(TornWriter); ok {
				off := int64(pageNo) * int64(s.opts.PageSize)
				tw.SyncPartial(tf.fileName, off, img[:len(img)/2])
			}
		}
		s.crash(ce)
	}
	return err
}

func (s *Store) crash(ce *storage.CrashError) {
	s.crashed.Store(true)
	panic(ce)
}

// ---------------------------------------------------------------------
// Wait events

// SetWaitObs points WAL and buffer-pool instrumentation at a wait
// profile. Call once right after Open, before any concurrent use.
func (s *Store) SetWaitObs(p *obs.WaitProfile) {
	s.waitProf = p
	s.pool.waitProf = p
}

// SetStmtWaits attributes subsequent WAL waits to ws (pass nil to
// detach). The engine calls this inside the statement bracket, which
// writeMu serializes, so a single slot suffices; the bracket detaches
// the set when it resolves, and no wait is recorded in it after that.
func (s *Store) SetStmtWaits(ws *obs.WaitSet) {
	s.waitsMu.Lock()
	s.stmtWaits = ws
	s.waitsMu.Unlock()
}

// recordWait charges one elapsed wait to the store-wide profile and,
// when inStmt, to the statement currently holding the write bracket,
// if any. A transaction's commit record is written outside every
// bracket (inStmt false): its wait is the committing statement's
// TXN_COMMIT, not the bracket holder's.
func (s *Store) recordWait(e obs.WaitEvent, start time.Time, inStmt bool) {
	if s.waitProf == nil {
		return
	}
	d := time.Since(start).Nanoseconds()
	s.waitProf.Record(e, d)
	if inStmt {
		s.waitsMu.Lock()
		s.stmtWaits.Record(e, d)
		s.waitsMu.Unlock()
	}
}

// ---------------------------------------------------------------------
// WAL plumbing

// walAppend logs one record (no fsync) after clearing the WALAPPEND
// fault point; inStmt as for recordWait. Caller must not hold s.mu.
//
// starburst:waits WAL_APPEND
func (s *Store) walAppend(table string, r *walRecord, inStmt bool) (uint64, error) {
	if err := s.checkFault(table, storage.FaultWALAppend); err != nil {
		return 0, err
	}
	var start time.Time
	if s.waitProf != nil {
		start = time.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.recordWait(obs.WaitWALAppend, start, inStmt)
	before := s.wal.bytes
	lsn, err := s.wal.append(r)
	if err != nil {
		return 0, err
	}
	d := s.wal.bytes - before
	s.statWALBytes += d
	s.walBytesSinceCkpt += d
	s.statWALRecords++
	return lsn, nil
}

// walSync makes every appended record durable, with the group-commit
// short-circuit. The WALSYNC fault point is checked both before and
// after the fsync: a crash in the window after the sync but before the
// acknowledgment is exactly the "committed but never reported" case the
// torture oracle must tolerate. inStmt as for recordWait.
//
// starburst:waits WAL_SYNC
func (s *Store) walSync(table string, inStmt bool) error {
	s.mu.Lock()
	upTo := s.wal.nextLSN - 1
	done := s.wal.syncedLSN >= upTo
	s.mu.Unlock()
	if done {
		return nil
	}
	if err := s.checkFault(table, storage.FaultWALSync); err != nil {
		return err
	}
	var start time.Time
	if s.waitProf != nil {
		start = time.Now()
	}
	s.mu.Lock()
	err := s.wal.sync(upTo)
	if err == nil {
		s.statWALSyncs++
	}
	s.mu.Unlock()
	s.recordWait(obs.WaitWALSync, start, inStmt)
	if err != nil {
		return err
	}
	return s.checkFault(table, storage.FaultWALSync)
}

// ---------------------------------------------------------------------
// Statement bracket

// BeginStmt opens a standalone (auto-commit) statement group; every
// mutation until CommitStmt or AbortStmt joins it. Statements are
// serialized: a second BeginStmt blocks until the first resolves.
func (s *Store) BeginStmt() error { return s.BeginTxnStmt(0) }

// BeginTxnStmt opens a statement group tagged with an explicit
// transaction (txnID != 0): the group's records replay after a crash
// only if CommitTxn's record also reached the disk. txnID 0 is the
// standalone auto-commit case (BeginStmt).
func (s *Store) BeginTxnStmt(txnID int64) error { return s.begin(txnID, false) }

// BeginReap opens a group of the store's own for the version GC's page
// deletes, which never join a user statement's group. Its CommitStmt
// does not fsync: each record it deletes has a durable tombstone, so
// recovery redoes a lost reap.
func (s *Store) BeginReap() error { return s.begin(0, true) }

func (s *Store) begin(txnID int64, reap bool) error {
	if s.crashed.Load() {
		return ErrCrashed
	}
	s.writeMu.Lock()
	if s.crashed.Load() {
		s.writeMu.Unlock()
		return ErrCrashed
	}
	s.mu.Lock()
	s.nextID++
	s.stmtBuf = stmt{id: s.nextID, txnID: uint64(txnID), reap: reap}
	s.curStmt = &s.stmtBuf
	if txnID != 0 {
		if s.openTxns == nil {
			s.openTxns = map[uint64]bool{}
		}
		s.openTxns[uint64(txnID)] = true
	}
	s.mu.Unlock()
	return nil
}

// CommitStmt logs the group's commit record; for a standalone group it
// fsyncs the WAL (the statement is durable exactly when CommitStmt
// returns nil) and may run a checkpoint afterwards. For a
// transaction-tagged group both are deferred to CommitTxn — one fsync
// covers the whole transaction. Always releases the statement bracket.
func (s *Store) CommitStmt() error {
	defer s.writeMu.Unlock()
	defer s.SetStmtWaits(nil) // before the bracket opens to the next statement
	s.mu.Lock()
	st := s.curStmt
	s.curStmt = nil
	s.mu.Unlock()
	if st == nil {
		return errors.New("disk: CommitStmt without BeginStmt")
	}
	if s.crashed.Load() {
		return ErrCrashed
	}
	if !st.wrote {
		return nil
	}
	if _, err := s.walAppend("", &walRecord{kind: walCommit, stmtID: st.id, txnID: st.txnID}, true); err != nil {
		return err
	}
	if st.txnID != 0 || st.reap {
		return nil
	}
	if err := s.walSync("", true); err != nil {
		return err
	}
	s.mu.Lock()
	s.commitsSinceCkpt++
	need := s.commitsSinceCkpt >= s.opts.CheckpointEvery ||
		s.walBytesSinceCkpt >= s.opts.CheckpointWALBytes
	s.mu.Unlock()
	if !need && s.pool.dirtyCount() >= s.pool.capacity/2 {
		need = true
	}
	if need {
		return s.checkpointLocked()
	}
	return nil
}

// CommitTxn makes an explicit transaction durable: it appends the
// transaction-commit record and fsyncs the WAL, after which every
// tagged statement group of the transaction replays on recovery. The
// engine calls it from the commit hook, under the transaction
// manager's commit mutex, before the commit timestamp publishes. Runs
// any checkpoint that was deferred while the transaction was open.
//
// starburst:locks mgr.commitMu:write
func (s *Store) CommitTxn(txnID int64) error {
	if s.crashed.Load() {
		return ErrCrashed
	}
	if _, err := s.walAppend("", &walRecord{kind: walTxnCommit, txnID: uint64(txnID)}, false); err != nil {
		return err
	}
	if err := s.walSync("", false); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.openTxns, uint64(txnID))
	s.commitsSinceCkpt++
	need := s.ckptPending ||
		s.commitsSinceCkpt >= s.opts.CheckpointEvery ||
		s.walBytesSinceCkpt >= s.opts.CheckpointWALBytes
	s.mu.Unlock()
	if !need && s.pool.dirtyCount() >= s.pool.capacity/2 {
		need = true
	}
	if need {
		return s.Checkpoint()
	}
	return nil
}

// AbortTxn releases an explicit transaction that ends without a commit
// record: its tagged groups stay in the WAL but never replay. Runs any
// checkpoint that was deferred while the transaction was open
// (best-effort; a failure resurfaces at the next commit).
func (s *Store) AbortTxn(txnID int64) {
	s.mu.Lock()
	delete(s.openTxns, uint64(txnID))
	pending := s.ckptPending && len(s.openTxns) == 0
	s.mu.Unlock()
	if pending && !s.crashed.Load() {
		_ = s.Checkpoint()
	}
}

// AbortStmt abandons the open statement group: nothing is logged, so
// the group's records never replay. Always releases the bracket.
func (s *Store) AbortStmt() {
	defer s.writeMu.Unlock()
	defer s.SetStmtWaits(nil)
	s.mu.Lock()
	s.curStmt = nil
	s.mu.Unlock()
}

// LogDDL records the raw SQL of a DDL statement in the open group; on
// recovery the engine re-executes it.
func (s *Store) LogDDL(sqlText string) error {
	if s.crashed.Load() {
		return ErrCrashed
	}
	s.mu.Lock()
	st := s.curStmt
	s.mu.Unlock()
	if st == nil {
		return errors.New("disk: LogDDL outside a statement")
	}
	if _, err := s.walAppend("", &walRecord{kind: walDDL, stmtID: st.id, data: []byte(sqlText)}, true); err != nil {
		return err
	}
	st.wrote = true
	return nil
}

// runMutation executes fn inside the open statement group, or brackets
// it as a single-mutation auto-commit when none is open.
func (s *Store) runMutation(fn func(st *stmt) error) error {
	if s.crashed.Load() {
		return ErrCrashed
	}
	s.mu.Lock()
	st := s.curStmt
	s.mu.Unlock()
	if st != nil {
		return fn(st)
	}
	if err := s.BeginStmt(); err != nil {
		return err
	}
	s.mu.Lock()
	st = s.curStmt
	s.mu.Unlock()
	if err := fn(st); err != nil {
		s.AbortStmt()
		return err
	}
	return s.CommitStmt()
}

// ---------------------------------------------------------------------
// Table lifecycle

// createTable binds a table name to its page file. In attach mode
// (between Open and Recover) an existing file is adopted as-is for the
// snapshot's tables; otherwise the file is truncated — a fresh CREATE
// must not resurrect pages from an older incarnation.
func (s *Store) createTable(name string, numCols int) (*tableFile, error) {
	if s.crashed.Load() {
		return nil, ErrCrashed
	}
	key := ident.Upper(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if tf, ok := s.tables[key]; ok {
		// Recreate over a live binding: only DROP removes one, so this
		// is CREATE after an engine-side drop that skipped
		// DropTableData. Reset it.
		tf.mu.Lock()
		tf.pages, tf.rows, tf.free, tf.lastIns = 0, 0, nil, 0
		tf.numCols = numCols
		tf.mu.Unlock()
		s.pool.dropTable(key)
		s.dropTombs(key)
		if err := tf.file.Truncate(0); err != nil {
			return nil, fmt.Errorf("disk: reset table %s: %w", key, err)
		}
		return tf, nil
	}
	path := filepath.Join(s.dir, tableFileName(key))
	f, err := s.fs.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("disk: open table file %s: %w", path, err)
	}
	tf := &tableFile{
		name:          key,
		fileName:      path,
		file:          f,
		numCols:       numCols,
		pendingRepair: map[uint32]bool{},
	}
	if s.attachMode {
		size, err := s.fs.Stat(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("disk: stat table file %s: %w", path, err)
		}
		ps := int64(s.opts.PageSize)
		tf.pages = (size + ps - 1) / ps // free map and row count rebuilt by recovery
	} else {
		s.pool.dropTable(key)
		s.dropTombs(key)
		if err := f.Truncate(0); err != nil {
			return nil, fmt.Errorf("disk: truncate table file %s: %w", path, err)
		}
	}
	s.tables[key] = tf
	return tf, nil
}

// DropTableData removes a table's binding and deletes its page file.
// The engine calls it after a DROP TABLE commits (and during replay of
// one).
func (s *Store) DropTableData(name string) error {
	key := ident.Upper(name)
	s.mu.Lock()
	tf := s.tables[key]
	delete(s.tables, key)
	s.dropTombs(key)
	s.mu.Unlock()
	if tf == nil {
		return nil
	}
	s.pool.dropTable(key)
	if err := tf.file.Close(); err != nil {
		return fmt.Errorf("disk: close %s: %w", tf.fileName, err)
	}
	if err := s.fs.Remove(tf.fileName); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("disk: remove %s: %w", tf.fileName, err)
	}
	return nil
}

func (s *Store) table(name string) *tableFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tables[ident.Upper(name)]
}

// ---------------------------------------------------------------------
// Page access

// pin returns the pinned frame for (tf, pageNo), reading the page from
// disk on a pool miss. Callers hold tf.mu (any mode).
func (s *Store) pin(tf *tableFile, pageNo uint32) (*frame, error) {
	return s.pool.get(frameKey{table: tf.name, pageNo: pageNo}, s.opts.PageSize, func(buf []byte) error {
		return s.loadPage(tf, pageNo, buf)
	})
}

// loadPage reads one page into buf, resolving the two kinds of
// "empty": never written (short or zero read) or all-zero region. A
// checksum failure is fatal in normal operation; during recovery it
// flags the page for repair by a WAL full-page image.
func (s *Store) loadPage(tf *tableFile, pageNo uint32, buf []byte) error {
	off := int64(pageNo) * int64(s.opts.PageSize)
	n, _ := tf.file.ReadAt(buf, off)
	if n == 0 {
		newPage(buf).init()
		return nil
	}
	for i := n; i < len(buf); i++ {
		buf[i] = 0
	}
	pg := newPage(buf)
	if pg.dataStart() == 0 {
		pg.init()
		return nil
	}
	if !pg.verify() {
		if s.recovering {
			tf.pendingRepair[pageNo] = true
			pg.init()
			return nil
		}
		return fmt.Errorf("disk: table %s page %d failed checksum", tf.name, pageNo)
	}
	return nil
}

// ---------------------------------------------------------------------
// Mutations (called via the relation handles in manager.go)

// encode encodes row into tf.rec and returns the record. A record
// larger than a page's capacity is an error and is not kept, so the
// buffer never outgrows a page. Caller holds tf.mu.
func (s *Store) encode(tf *tableFile, row datum.Row) ([]byte, error) {
	rec, err := encodeRow(tf.rec[:0], row)
	if err != nil {
		return nil, fmt.Errorf("disk: %s: %w", tf.name, err)
	}
	if maxRec := s.opts.PageSize - pageHeaderSize - slotSize; len(rec) > maxRec {
		return nil, fmt.Errorf("disk: record of %d bytes exceeds page capacity %d", len(rec), maxRec)
	}
	tf.rec = rec
	return rec, nil
}

func (s *Store) insertRecord(tf *tableFile, row datum.Row) (storage.RID, error) {
	var rid storage.RID
	err := s.runMutation(func(st *stmt) error {
		tf.mu.Lock()
		defer tf.mu.Unlock()
		rec, err := s.encode(tf, row)
		if err != nil {
			return err
		}
		pageNo := tf.choosePage(len(rec))
		fr, err := s.pin(tf, uint32(pageNo))
		if err != nil {
			return err
		}
		pg := newPage(fr.buf)
		slot := pg.nextSlot()
		lsn, err := s.walAppend(tf.name, &walRecord{
			kind: walInsert, stmtID: st.id, table: tf.name,
			pageNo: uint32(pageNo), slot: uint32(slot), data: rec,
		}, true)
		if err != nil {
			s.pool.unpin(fr, false, 0)
			return err
		}
		if ierr := pg.insertAt(slot, rec); ierr != nil {
			// The free map guaranteed the fit; failure here is an
			// invariant violation, and the record is already logged.
			s.pool.unpin(fr, false, 0)
			return fmt.Errorf("disk: free-space map out of sync on %s page %d: %w", tf.name, pageNo, ierr)
		}
		pg.setLSN(lsn)
		st.wrote = true
		tf.free[pageNo] = pg.insertCapacity()
		tf.lastIns = pageNo
		tf.rows++
		s.pool.unpin(fr, true, lsn)
		rid = storage.RID{Page: int32(pageNo), Slot: int32(slot)}
		return nil
	})
	return rid, err
}

// choosePage picks a page with room for a record of n bytes, growing
// the table when none has space. Caller holds tf.mu.
func (tf *tableFile) choosePage(n int) int {
	if tf.lastIns < len(tf.free) && tf.free[tf.lastIns] >= n {
		return tf.lastIns
	}
	for p, avail := range tf.free {
		if avail >= n {
			return p
		}
	}
	tf.free = append(tf.free, 0)
	tf.pages = int64(len(tf.free))
	return len(tf.free) - 1
}

func (s *Store) deleteRecord(tf *tableFile, rid storage.RID) error {
	err := s.runMutation(func(st *stmt) error {
		tf.mu.Lock()
		defer tf.mu.Unlock()
		if rid.Page < 0 || int64(rid.Page) >= tf.pages {
			return fmt.Errorf("disk: %s: no record %s", tf.name, rid)
		}
		fr, err := s.pin(tf, uint32(rid.Page))
		if err != nil {
			return err
		}
		pg := newPage(fr.buf)
		if pg.record(int(rid.Slot)) == nil {
			s.pool.unpin(fr, false, 0)
			return fmt.Errorf("disk: %s: no record %s", tf.name, rid)
		}
		lsn, err := s.walAppend(tf.name, &walRecord{
			kind: walDelete, stmtID: st.id, table: tf.name,
			pageNo: uint32(rid.Page), slot: uint32(rid.Slot),
		}, true)
		if err != nil {
			s.pool.unpin(fr, false, 0)
			return err
		}
		pg.delete(int(rid.Slot))
		pg.setLSN(lsn)
		st.wrote = true
		tf.free[rid.Page] = pg.insertCapacity()
		tf.rows--
		s.pool.unpin(fr, true, lsn)
		return nil
	})
	if err == nil {
		s.untombstone(tf.name, rid)
	}
	return err
}

// tombstoneRecord logs a transaction's DELETE of the record at rid in
// the open statement's group. The page keeps the record for snapshots
// that still read it until the version GC reaps it.
func (s *Store) tombstoneRecord(tf *tableFile, rid storage.RID) error {
	return s.runMutation(func(st *stmt) error {
		if _, err := s.walAppend(tf.name, &walRecord{
			kind: walTombstone, stmtID: st.id, table: tf.name,
			pageNo: uint32(rid.Page), slot: uint32(rid.Slot),
		}, true); err != nil {
			return err
		}
		st.wrote = true
		s.mu.Lock()
		s.tombs[tombKey{tf.name, rid}] = true
		s.mu.Unlock()
		return nil
	})
}

// untombstone forgets the tombstone of a record that was reaped, or
// whose DELETE rolled back (its group then never replays).
func (s *Store) untombstone(table string, rid storage.RID) {
	s.mu.Lock()
	delete(s.tombs, tombKey{table, rid})
	s.mu.Unlock()
}

// dropTombs forgets the tombstones of a dropped or reset table. Caller
// holds s.mu.
func (s *Store) dropTombs(table string) {
	for k := range s.tombs {
		if k.table == table {
			delete(s.tombs, k)
		}
	}
}

func (s *Store) updateRecord(tf *tableFile, rid storage.RID, row datum.Row) error {
	return s.runMutation(func(st *stmt) error {
		tf.mu.Lock()
		defer tf.mu.Unlock()
		rec, err := s.encode(tf, row)
		if err != nil {
			return err
		}
		if rid.Page < 0 || int64(rid.Page) >= tf.pages {
			return fmt.Errorf("disk: %s: no record %s", tf.name, rid)
		}
		fr, err := s.pin(tf, uint32(rid.Page))
		if err != nil {
			return err
		}
		pg := newPage(fr.buf)
		if pg.record(int(rid.Slot)) == nil {
			s.pool.unpin(fr, false, 0)
			return fmt.Errorf("disk: %s: no record %s", tf.name, rid)
		}
		// Fit is verified before logging so a logged update always
		// applies — here and at replay. Records are pinned to their RID
		// (indexes and undo entries hold it), so an update that outgrows
		// its page is rejected rather than relocated.
		if !pg.canUpdate(int(rid.Slot), len(rec)) {
			s.pool.unpin(fr, false, 0)
			return fmt.Errorf("disk: %s: updated record of %d bytes does not fit in page %d", tf.name, len(rec), rid.Page)
		}
		lsn, err := s.walAppend(tf.name, &walRecord{
			kind: walUpdate, stmtID: st.id, table: tf.name,
			pageNo: uint32(rid.Page), slot: uint32(rid.Slot), data: rec,
		}, true)
		if err != nil {
			s.pool.unpin(fr, false, 0)
			return err
		}
		if uerr := pg.update(int(rid.Slot), rec); uerr != nil {
			s.pool.unpin(fr, false, 0)
			return fmt.Errorf("disk: update after fit check failed on %s %s: %w", tf.name, rid, uerr)
		}
		pg.setLSN(lsn)
		st.wrote = true
		tf.free[rid.Page] = pg.insertCapacity()
		s.pool.unpin(fr, true, lsn)
		return nil
	})
}

// fetchInto decodes the record at rid into dst while its page is
// pinned; a nil dst only asks whether there is a record.
func (s *Store) fetchInto(tf *tableFile, rid storage.RID, dst datum.Row) bool {
	if rid.Page < 0 || rid.Slot < 0 {
		return false
	}
	tf.mu.RLock()
	defer tf.mu.RUnlock()
	if int64(rid.Page) >= tf.pages {
		return false
	}
	fr, err := s.pin(tf, uint32(rid.Page))
	if err != nil {
		return false
	}
	defer s.pool.unpin(fr, false, 0)
	rec := newPage(fr.buf).record(int(rid.Slot))
	return rec != nil && (dst == nil || decodeInto(dst, rec, nil) == nil)
}

// ---------------------------------------------------------------------
// Checkpoint

// Checkpoint forces a full checkpoint: all committed state becomes
// durable in the page files and the WAL is rotated empty.
func (s *Store) Checkpoint() error {
	if s.crashed.Load() {
		return ErrCrashed
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if s.crashed.Load() {
		return ErrCrashed
	}
	return s.checkpointLocked()
}

// checkpointLocked runs the checkpoint protocol. Caller holds writeMu
// (so no statement is in flight and every dirty frame is committed
// state):
//
//  1. log a full-page image of every dirty frame (torn-page repair
//     source), 2. fsync the WAL, 3. write the dirty pages back,
//  4. trim + fsync the data files, 5. write the catalog snapshot
//     (tmp + rename), 6. rotate the WAL (tmp + rename).
//
// A crash at any point is recoverable: before step 6 the old WAL still
// replays everything; after it, the snapshot + empty WAL are the
// complete state.
//
// While an explicit transaction is open the checkpoint is deferred
// instead: dirty frames hold the transaction's uncommitted page state
// (the FPIs and write-back would persist it without the replay-time
// commit filter), and the rotation would discard its tagged records.
// The deferral is noted and honored by the transaction's CommitTxn or
// AbortTxn.
func (s *Store) checkpointLocked() error {
	s.mu.Lock()
	if len(s.openTxns) > 0 {
		s.ckptPending = true
		s.mu.Unlock()
		return nil
	}
	s.ckptPending = false
	s.mu.Unlock()

	frames := s.pool.dirtyFrames()
	sort.Slice(frames, func(i, j int) bool {
		if frames[i].key.table != frames[j].key.table {
			return frames[i].key.table < frames[j].key.table
		}
		return frames[i].key.pageNo < frames[j].key.pageNo
	})

	// 1. Full-page images. Sealed copies double as the write-back
	// images in step 3.
	imgs := make([][]byte, len(frames))
	for i, fr := range frames {
		img := append([]byte(nil), fr.buf...)
		newPage(img).seal()
		imgs[i] = img
		if err := s.checkFault(fr.key.table, storage.FaultWALAppend); err != nil {
			return err
		}
		s.mu.Lock()
		before := s.wal.bytes
		_, err := s.wal.append(&walRecord{kind: walFPI, table: fr.key.table, pageNo: fr.key.pageNo, data: img})
		if err == nil {
			s.statWALBytes += s.wal.bytes - before
			s.statWALRecords++
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}

	// 2. WAL fsync: the repair images are durable before any page file
	// is touched.
	if err := s.walSync("", true); err != nil {
		return err
	}

	// 3. Dirty page write-back.
	touched := map[*tableFile]bool{}
	for i, fr := range frames {
		tf := s.table(fr.key.table)
		if tf == nil {
			s.pool.clean(fr)
			continue
		}
		if err := s.checkPageWrite(tf, fr.key.pageNo, imgs[i]); err != nil {
			return err
		}
		off := int64(fr.key.pageNo) * int64(s.opts.PageSize)
		if _, err := tf.file.WriteAt(imgs[i], off); err != nil {
			return fmt.Errorf("disk: write %s page %d: %w", tf.name, fr.key.pageNo, err)
		}
		s.pool.clean(fr)
		touched[tf] = true
	}

	// 4. Trim any page file longer than its table's page count, then
	// fsync every touched file. Pages only ever grow, so this is a
	// guard: a longer file would hand its stale tail back as live pages
	// when the next open adopts it.
	s.mu.Lock()
	all := make([]*tableFile, 0, len(s.tables))
	for _, tf := range s.tables {
		all = append(all, tf)
	}
	s.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	for _, tf := range all {
		tf.mu.RLock()
		want := tf.pages * int64(s.opts.PageSize)
		tf.mu.RUnlock()
		size, err := s.fs.Stat(tf.fileName)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("disk: stat %s: %w", tf.fileName, err)
		}
		if size > want {
			if err := tf.file.Truncate(want); err != nil {
				return fmt.Errorf("disk: truncate %s: %w", tf.fileName, err)
			}
			touched[tf] = true
		}
	}
	for _, tf := range all {
		if !touched[tf] {
			continue
		}
		if err := tf.file.Sync(); err != nil {
			return fmt.Errorf("disk: fsync %s: %w", tf.fileName, err)
		}
	}

	// 5. Catalog snapshot.
	s.mu.Lock()
	lastLSN := s.wal.nextLSN - 1
	snapFn := s.snapshotFn
	s.mu.Unlock()
	var schema []byte
	if snapFn != nil {
		blob, err := snapFn()
		if err != nil {
			return fmt.Errorf("disk: snapshot catalog: %w", err)
		}
		schema = blob
	}
	blob, err := json.Marshal(snapshotFile{LastLSN: lastLSN, Schema: schema})
	if err != nil {
		return err
	}
	if err := s.writeFileAtomic(catalogFileName, blob); err != nil {
		return err
	}

	// 6. Rotate the WAL.
	tmp := filepath.Join(s.dir, walFileName+".tmp")
	nf, err := s.fs.OpenFile(tmp)
	if err != nil {
		return fmt.Errorf("disk: rotate wal: %w", err)
	}
	if err := nf.Truncate(0); err != nil {
		return fmt.Errorf("disk: rotate wal: %w", err)
	}
	nw, err := newWalFile(nf)
	if err != nil {
		return fmt.Errorf("disk: rotate wal: %w", err)
	}
	nw.nextLSN = lastLSN + 1
	if err := s.carryTombstones(nw); err != nil {
		return fmt.Errorf("disk: rotate wal: %w", err)
	}
	if err := nf.Sync(); err != nil {
		return fmt.Errorf("disk: rotate wal: %w", err)
	}
	nw.syncedLSN = nw.nextLSN - 1
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, walFileName)); err != nil {
		return fmt.Errorf("disk: rotate wal: %w", err)
	}
	s.mu.Lock()
	old := s.walFile
	s.walFile = nf
	s.wal = nw
	s.commitsSinceCkpt = 0
	s.walBytesSinceCkpt = 0
	s.statCkpts++
	s.snapLSN = lastLSN
	s.mu.Unlock()
	if err := old.Close(); err != nil {
		return fmt.Errorf("disk: close rotated wal: %w", err)
	}
	return nil
}

// carryTombstones logs the tombstones not yet reaped into the rotated
// log w as one committed group: the written-back pages still hold their
// records, and the old log goes away. Caller holds writeMu.
func (s *Store) carryTombstones(w *walWriter) error {
	s.mu.Lock()
	keys := make([]tombKey, 0, len(s.tombs))
	for k := range s.tombs {
		keys = append(keys, k)
	}
	s.nextID++
	id := s.nextID
	s.mu.Unlock()
	if len(keys) == 0 {
		return nil
	}
	for _, k := range keys {
		r := walRecord{kind: walTombstone, stmtID: id, table: k.table, pageNo: uint32(k.rid.Page), slot: uint32(k.rid.Slot)}
		if _, err := w.append(&r); err != nil {
			return err
		}
	}
	_, err := w.append(&walRecord{kind: walCommit, stmtID: id})
	s.mu.Lock()
	s.statWALBytes += w.bytes
	s.statWALRecords += w.frames
	s.mu.Unlock()
	return err
}

// writeFileAtomic writes name under the data dir via tmp + fsync +
// rename.
func (s *Store) writeFileAtomic(name string, data []byte) error {
	path := filepath.Join(s.dir, name)
	tmp := path + ".tmp"
	f, err := s.fs.OpenFile(tmp)
	if err != nil {
		return fmt.Errorf("disk: write %s: %w", name, err)
	}
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("disk: write %s: %w", name, err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		return fmt.Errorf("disk: write %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("disk: write %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("disk: close %s: %w", name, err)
	}
	return s.fs.Rename(tmp, path)
}

// ---------------------------------------------------------------------
// Recovery

// Recover replays the WAL against the attached page files. The engine
// has already recreated the snapshot schema; applyDDL re-executes a
// committed post-snapshot DDL statement (the engine defers index builds
// until data replay is done). Recover must be called exactly once,
// before any other use of the store.
func (s *Store) Recover(applyDDL func(sqlText string) error) error {
	s.attachMode = false
	s.recovering = true
	defer func() { s.recovering = false }()

	// Two-level commit filter: a statement group replays only when its
	// commit record was found AND, if the group is tagged with an
	// explicit transaction, that transaction's commit record was found
	// too — a crash mid-transaction drops every statement of it.
	committed := map[uint64]bool{}
	stmtTxn := map[uint64]uint64{}
	txnCommitted := map[uint64]bool{}
	for _, r := range s.scanned {
		switch r.kind {
		case walCommit:
			committed[r.stmtID] = true
			if r.txnID != 0 {
				stmtTxn[r.stmtID] = r.txnID
			}
		case walTxnCommit:
			txnCommitted[r.txnID] = true
		}
	}
	replayable := func(stmtID uint64) bool {
		if !committed[stmtID] {
			return false
		}
		if t := stmtTxn[stmtID]; t != 0 && !txnCommitted[t] {
			return false
		}
		return true
	}
	for _, r := range s.scanned {
		switch r.kind {
		case walCommit, walTxnCommit:
			// markers only
		case walFPI:
			if err := s.replayFPI(r); err != nil {
				return err
			}
		case walDDL:
			if !replayable(r.stmtID) || r.lsn <= s.snapLSN {
				continue
			}
			if err := applyDDL(string(r.data)); err != nil {
				return fmt.Errorf("disk: replay DDL %q: %w", r.data, err)
			}
		case walTombstone: // reaped at the end: a later full-page image may restore the record
			if replayable(r.stmtID) {
				s.tombs[tombKey{r.table, storage.RID{Page: int32(r.pageNo), Slot: int32(r.slot)}}] = true
			}
		case walInsert, walDelete, walUpdate:
			if !replayable(r.stmtID) {
				continue
			}
			if r.kind == walDelete { // the GC reaped it: its slot may hold a newer record
				delete(s.tombs, tombKey{r.table, storage.RID{Page: int32(r.pageNo), Slot: int32(r.slot)}})
			}
			if err := s.replayData(r); err != nil {
				return err
			}
		default:
			return fmt.Errorf("disk: replaying unknown wal kind %d", r.kind)
		}
	}
	s.scanned = nil
	if err := s.finishRecovery(); err != nil {
		return err
	}
	return s.reapTombstones()
}

// reapTombstones deletes, in a reap group, the records of the committed
// tombstones recovery found unreaped: no snapshot survives a crash. The
// deletes are logged, so a later crash replays them before any insert
// that reuses their slots.
func (s *Store) reapTombstones() error {
	if len(s.tombs) == 0 {
		return nil
	}
	if err := s.BeginReap(); err != nil {
		return err
	}
	for k := range s.tombs {
		if tf := s.table(k.table); tf != nil {
			if s.fetchInto(tf, k.rid, nil) {
				if err := s.deleteRecord(tf, k.rid); err != nil {
					s.AbortStmt()
					return err
				}
			}
		}
		delete(s.tombs, k)
	}
	return s.CommitStmt()
}

// replayFPI installs a checkpoint full-page image when the on-disk page
// is older or damaged. FPIs capture only committed state (they are
// logged under the checkpoint quiesce), so no commit gating applies.
func (s *Store) replayFPI(r *walRecord) error {
	tf := s.table(r.table)
	if tf == nil {
		return nil // table dropped later in the log
	}
	if len(r.data) != s.opts.PageSize {
		return fmt.Errorf("disk: FPI for %s page %d has %d bytes, want %d", r.table, r.pageNo, len(r.data), s.opts.PageSize)
	}
	img := newPage(r.data)
	tf.mu.Lock()
	defer tf.mu.Unlock()
	fr, err := s.pin(tf, r.pageNo)
	if err != nil {
		return err
	}
	cur := newPage(fr.buf)
	if tf.pendingRepair[r.pageNo] || cur.dataStart() == 0 || cur.lsn() < img.lsn() {
		copy(fr.buf, r.data)
		delete(tf.pendingRepair, r.pageNo)
		s.pool.unpin(fr, true, img.lsn())
	} else {
		s.pool.unpin(fr, false, 0)
	}
	if int64(r.pageNo) >= tf.pages {
		tf.pages = int64(r.pageNo) + 1
	}
	return nil
}

// replayData applies one committed physiological record, gated by the
// page LSN so replay is idempotent.
func (s *Store) replayData(r *walRecord) error {
	tf := s.table(r.table)
	if tf == nil {
		return nil // table dropped later in the log
	}
	tf.mu.Lock()
	defer tf.mu.Unlock()
	if tf.pendingRepair[r.pageNo] {
		// The page is damaged; a later FPI both repairs it and carries
		// this record's effect.
		return nil
	}
	fr, err := s.pin(tf, r.pageNo)
	if err != nil {
		return err
	}
	pg := newPage(fr.buf)
	if tf.pendingRepair[r.pageNo] {
		// Damage detected by this very load.
		s.pool.unpin(fr, false, 0)
		return nil
	}
	if pg.lsn() >= r.lsn {
		s.pool.unpin(fr, false, 0)
		return nil
	}
	switch r.kind {
	case walInsert:
		if err := pg.insertAt(int(r.slot), r.data); err != nil {
			s.pool.unpin(fr, false, 0)
			return fmt.Errorf("disk: replay insert %s page %d slot %d: %w", r.table, r.pageNo, r.slot, err)
		}
	case walDelete:
		pg.delete(int(r.slot))
	case walUpdate:
		if err := pg.update(int(r.slot), r.data); err != nil {
			s.pool.unpin(fr, false, 0)
			return fmt.Errorf("disk: replay update %s page %d slot %d: %w", r.table, r.pageNo, r.slot, err)
		}
	}
	pg.setLSN(r.lsn)
	s.pool.unpin(fr, true, r.lsn)
	if int64(r.pageNo) >= tf.pages {
		tf.pages = int64(r.pageNo) + 1
	}
	return nil
}

// finishRecovery walks every page of every table rebuilding the free
// map and row counts, and verifies no damaged page was left without a
// repair image.
func (s *Store) finishRecovery() error {
	s.mu.Lock()
	all := make([]*tableFile, 0, len(s.tables))
	for _, tf := range s.tables {
		all = append(all, tf)
	}
	s.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	for _, tf := range all {
		tf.mu.Lock()
		tf.rows = 0
		tf.free = make([]int, tf.pages)
		tf.lastIns = 0
		for p := int64(0); p < tf.pages; p++ {
			fr, err := s.pin(tf, uint32(p))
			if err != nil {
				tf.mu.Unlock()
				return err
			}
			pg := newPage(fr.buf)
			if tf.pendingRepair[uint32(p)] {
				s.pool.unpin(fr, false, 0)
				tf.mu.Unlock()
				return fmt.Errorf("disk: table %s page %d is torn and no repair image was logged", tf.name, p)
			}
			tf.rows += int64(pg.liveCount())
			tf.free[p] = pg.insertCapacity()
			s.pool.unpin(fr, false, 0)
		}
		tf.mu.Unlock()
	}
	return nil
}

// ---------------------------------------------------------------------
// Shutdown

// Close checkpoints (unless crashed) and closes every file handle. The
// store is unusable afterwards.
func (s *Store) Close() error {
	var errs []error
	if !s.crashed.Load() {
		if err := s.Checkpoint(); err != nil && !errors.Is(err, ErrCrashed) {
			errs = append(errs, err)
		}
	}
	s.mu.Lock()
	tables := make([]*tableFile, 0, len(s.tables))
	for _, tf := range s.tables {
		tables = append(tables, tf)
	}
	walFile := s.walFile
	s.walFile = nil
	s.mu.Unlock()
	sort.Slice(tables, func(i, j int) bool { return tables[i].name < tables[j].name })
	for _, tf := range tables {
		if err := tf.file.Close(); err != nil {
			errs = append(errs, fmt.Errorf("disk: close %s: %w", tf.fileName, err))
		}
	}
	if walFile != nil {
		if err := walFile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("disk: close wal: %w", err))
		}
	}
	return errors.Join(errs...)
}
