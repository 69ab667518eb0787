// Package catalog implements Starburst's catalog: tables, views,
// indexes (attachments), statistics, and the registries of externally
// defined functions, storage managers and access methods. Corona's
// "base system functions (e.g., catalog interface) can frequently be
// used by the extension" (section 4) — all extensions flow through the
// registries held here.
//
// Since the MVCC redesign the schema is versioned copy-on-write: every
// DDL statement builds a new immutable generation (fresh name maps,
// cloned Table structs for whatever it changed) and publishes it with
// one atomic pointer swap. Readers resolve names lock-free against
// whichever generation they pinned, so DDL never blocks a running
// statement and a transaction's pinned generation stays stable for its
// whole lifetime. Storage handles, version maps and feedback state are
// shared across generations — a clone changes schema, not data.
package catalog

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/datum"
	"repro/internal/expr"
	"repro/internal/ident"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Column describes one column of a table or view.
type Column struct {
	Name    string
	Type    datum.TypeID
	NotNull bool
}

// TableStats carries the optimizer's statistics for one table,
// maintained by Analyze and used for cardinality estimation.
type TableStats struct {
	Rows  int64
	Pages int64
	// ColCard is the number of distinct values per column.
	ColCard []int64
	// ColMin and ColMax bound each column's values (NULL when unknown
	// or non-scalar).
	ColMin, ColMax []datum.Value
}

// Index is an attachment instance on a table.
type Index struct {
	Name    string
	Table   string
	KeyCols []int
	Method  string
	Caps    storage.AccessMethodCaps
	Unique  bool
	At      storage.Attachment
}

// Table is a stored table: schema, storage handle, attachments, stats.
// Table structs are immutable once published in a generation — DDL
// clones them — except for the shared mutable state reachable through
// Rel, MVCC and fb, which every generation's clone points at.
type Table struct {
	Name string
	Cols []Column
	// SM names the storage manager handling this table; Corona "must
	// ensure that the correct storage manager is invoked when a table
	// is accessed" (section 1).
	SM      string
	Rel     storage.Relation
	Indexes []*Index
	Stats   TableStats
	// System marks an engine-registered introspection table (the SYS
	// schema): read-only, excluded from user DDL, volatile.
	System bool

	// MVCC is the table's row-version map, shared by every
	// generation's clone (versions survive DDL). nil on system tables,
	// which are unversioned snapshots by construction.
	MVCC *txn.TableVersions

	// fb holds the observed-cardinality overlays (see feedback.go),
	// shared across generations and internally synchronized: folds
	// happen after statements finish, concurrent with compilations
	// consulting the overlays.
	fb *cardFeedback
}

// clone returns a schema-level copy sharing all mutable runtime state
// (relation, version map, feedback). DDL mutates the clone, never the
// published original.
func (t *Table) clone() *Table {
	nt := *t
	nt.Indexes = append([]*Index(nil), t.Indexes...)
	return &nt
}

// ColIndex resolves a column name (case-insensitive) to its ordinal, or
// -1 when absent.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if ident.Equal(c.Name, name) {
			return i
		}
	}
	return -1
}

// View is a named query. The definition is kept as Hydrogen text and
// re-translated into QGM at each use, where the view-merging rewrite
// rules take over ("as view definitions are hidden from the query
// writer, only the DBMS can rewrite queries involving views").
type View struct {
	Name string
	// ColNames optionally renames the output columns.
	ColNames []string
	Text     string
}

// generation is one immutable published schema: name maps plus the
// version number plan caches key on.
type generation struct {
	tables  map[string]*Table
	views   map[string]*View
	version int64
}

// Catalog is one database's schema plus the extension registries. A
// Catalog value is either the live catalog (root) or a pinned
// read-only view of one generation returned by Pin; both share the
// registries, the I/O counters and all table runtime state.
type Catalog struct {
	// mu serializes generation producers (DDL, ANALYZE, BumpVersion).
	// Readers never take it.
	mu  sync.Mutex
	gen atomic.Pointer[generation]

	// pinned, when non-nil, fixes every name lookup to one generation:
	// the read view a transaction's statements compile and run against.
	pinned *generation
	// root points to the live catalog a pinned view derives from (nil
	// on the root itself); current-generation lookups — DML index
	// maintenance, GC — go through it.
	root *Catalog

	// Funcs is the registry of scalar/aggregate/set-predicate/table
	// functions, seeded with built-ins.
	Funcs *expr.Registry
	// Storage is the registry of storage managers and access methods.
	Storage *storage.Registry
	// IO is the shared simulated-I/O counter for all relations.
	IO *storage.IOStats

	// faults, when non-nil, decorates new relations and attachments as
	// they are created (see AttachFaults).
	faults *storage.FaultInjector

	// gcMu guards gc, the queue of row versions waiting for the GC
	// horizon to pass so they can be frozen or reaped (see mvcc.go).
	gcMu sync.Mutex
	gc   []gcItem
}

// live returns the catalog that owns the mutable state: the root
// behind a pinned view, or c itself.
func (c *Catalog) live() *Catalog {
	if c.root != nil {
		return c.root
	}
	return c
}

// current returns the generation lookups resolve against: the pinned
// one on a read view, the latest otherwise.
func (c *Catalog) current() *generation {
	if c.pinned != nil {
		return c.pinned
	}
	return c.gen.Load()
}

// Pin returns a read-only view of the current schema generation.
// Statements of a transaction resolve every name against their pinned
// view, so concurrent DDL — which publishes new generations — never
// changes what a running transaction sees.
func (c *Catalog) Pin() *Catalog {
	l := c.live()
	p := &Catalog{
		pinned:  l.gen.Load(),
		root:    l,
		Funcs:   l.Funcs,
		Storage: l.Storage,
		IO:      l.IO,
	}
	p.gen.Store(p.pinned)
	return p
}

// Version reports the schema/statistics generation: the pinned
// generation's on a read view, the live one otherwise.
func (c *Catalog) Version() int64 { return c.current().version }

// BumpVersion advances the schema generation, invalidating any plan
// compiled against earlier generations. Catalog mutators publish new
// generations internally; it is exported for extensions that mutate
// storage out of band (e.g. a storage manager whose contents change
// externally).
func (c *Catalog) BumpVersion() {
	l := c.live()
	l.mu.Lock()
	defer l.mu.Unlock()
	g := l.gen.Load()
	l.publish(&generation{tables: g.tables, views: g.views, version: g.version + 1})
}

// publish swaps in a new generation (caller holds the live catalog's
// mu).
func (c *Catalog) publish(g *generation) { c.gen.Store(g) }

// mutate clones the current generation's maps, applies fn to the
// clone, and publishes it with the version bumped. fn returning an
// error abandons the clone with nothing published.
func (c *Catalog) mutate(fn func(g *generation) error) error {
	l := c.live()
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.gen.Load()
	next := &generation{
		tables:  make(map[string]*Table, len(cur.tables)+1),
		views:   make(map[string]*View, len(cur.views)+1),
		version: cur.version + 1,
	}
	for k, t := range cur.tables {
		next.tables[k] = t
	}
	for k, v := range cur.views {
		next.views[k] = v
	}
	if err := fn(next); err != nil {
		return err
	}
	l.publish(next)
	return nil
}

// New returns an empty catalog with built-in registries.
func New() *Catalog {
	c := &Catalog{
		Funcs:   expr.NewRegistry(),
		Storage: storage.NewRegistry(),
		IO:      &storage.IOStats{},
	}
	c.gen.Store(&generation{tables: map[string]*Table{}, views: map[string]*View{}})
	return c
}

// key is a name's catalog key; it is also the name the catalog stores.
func key(name string) string { return ident.Upper(name) }

// SystemSchema is the reserved name prefix of the engine's
// introspection tables.
const SystemSchema = "SYS."

// IsSystemName reports whether a table/view name lies in the reserved
// SYS schema (case-insensitive).
func IsSystemName(name string) bool { return strings.HasPrefix(key(name), SystemSchema) }

// SystemObjectError is the typed error returned when a statement tries
// to modify a system object: DML against a SYS table, or DDL that would
// create, drop, index or re-analyze anything in the reserved schema.
type SystemObjectError struct {
	// Name is the system object, e.g. "SYS.STATEMENTS".
	Name string
	// Op is the rejected operation, e.g. "INSERT" or "DROP TABLE".
	Op string
}

func (e *SystemObjectError) Error() string {
	return fmt.Sprintf("catalog: %s is a system object: %s is not allowed", e.Name, e.Op)
}

// checkNotSystem rejects user operations on reserved names.
func checkNotSystem(name, op string) error {
	if IsSystemName(name) {
		return &SystemObjectError{Name: key(name), Op: op}
	}
	return nil
}

// CreateTable creates a table under the named storage manager (empty
// for the default heap).
func (c *Catalog) CreateTable(name string, cols []Column, smName string) (*Table, error) {
	if err := checkNotSystem(name, "CREATE TABLE"); err != nil {
		return nil, err
	}
	return c.createTable(name, cols, smName, false)
}

// CreateSystemTable registers one table of the engine's SYS
// introspection schema. It is the only path that may create tables
// under the reserved prefix; the resulting table is marked System so
// DML and user DDL reject it with a SystemObjectError.
func (c *Catalog) CreateSystemTable(name string, cols []Column, smName string) (*Table, error) {
	if !IsSystemName(name) {
		return nil, fmt.Errorf("catalog: system table %s must live in the %s schema", name, SystemSchema)
	}
	return c.createTable(name, cols, smName, true)
}

func (c *Catalog) createTable(name string, cols []Column, smName string, system bool) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: table %s needs at least one column", name)
	}
	seen := map[string]bool{}
	for _, col := range cols {
		k := key(col.Name)
		if seen[k] {
			return nil, fmt.Errorf("catalog: duplicate column %s in %s", col.Name, name)
		}
		seen[k] = true
	}
	var t *Table
	err := c.mutate(func(g *generation) error {
		k := key(name)
		if _, ok := g.tables[k]; ok {
			return fmt.Errorf("catalog: table %s already exists", name)
		}
		if _, ok := g.views[k]; ok {
			return fmt.Errorf("catalog: %s already exists as a view", name)
		}
		sm, err := c.live().Storage.StorageManager(smName)
		if err != nil {
			return err
		}
		rel, err := sm.Create(name, len(cols), c.live().IO)
		if err != nil {
			return err
		}
		t = &Table{Name: key(name), Cols: cols, SM: sm.Name(), Rel: rel, System: system, fb: &cardFeedback{}}
		if !system {
			t.MVCC = txn.NewTableVersions()
		}
		t.Stats.ColCard = make([]int64, len(cols))
		t.Stats.ColMin = make([]datum.Value, len(cols))
		t.Stats.ColMax = make([]datum.Value, len(cols))
		g.tables[k] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// DropTable removes a table and its attachments from the schema.
// Pinned generations keep resolving it; their scans stay valid against
// the still-reachable relation.
func (c *Catalog) DropTable(name string) error {
	if err := checkNotSystem(name, "DROP TABLE"); err != nil {
		return err
	}
	return c.mutate(func(g *generation) error {
		if _, ok := g.tables[key(name)]; !ok {
			return fmt.Errorf("catalog: no table %s", name)
		}
		delete(g.tables, key(name))
		return nil
	})
}

// Table resolves a table by name in this catalog's generation.
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.current().tables[key(name)]
	return t, ok
}

// currentTable resolves a table against the live (newest) generation:
// the index set DML maintains and GC unlinks from is always the
// current one, whatever generation the statement pinned.
func (c *Catalog) currentTable(name string) (*Table, bool) {
	t, ok := c.live().gen.Load().tables[key(name)]
	return t, ok
}

// TableNames lists user tables, sorted. System (SYS.*) tables are
// listed by SystemTableNames instead: they snapshot live engine state,
// so dump/compare tooling iterating TableNames must not see them.
func (c *Catalog) TableNames() []string {
	var out []string
	for _, t := range c.current().tables {
		if t.System {
			continue
		}
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// SystemTableNames lists the SYS virtual tables, sorted.
func (c *Catalog) SystemTableNames() []string {
	var out []string
	for _, t := range c.current().tables {
		if t.System {
			out = append(out, t.Name)
		}
	}
	sort.Strings(out)
	return out
}

// CreateView records a view definition.
func (c *Catalog) CreateView(name string, colNames []string, text string) error {
	if err := checkNotSystem(name, "CREATE VIEW"); err != nil {
		return err
	}
	return c.mutate(func(g *generation) error {
		k := key(name)
		if _, ok := g.views[k]; ok {
			return fmt.Errorf("catalog: view %s already exists", name)
		}
		if _, ok := g.tables[k]; ok {
			return fmt.Errorf("catalog: %s already exists as a table", name)
		}
		g.views[k] = &View{Name: k, ColNames: colNames, Text: text}
		return nil
	})
}

// DropView removes a view.
func (c *Catalog) DropView(name string) error {
	return c.mutate(func(g *generation) error {
		if _, ok := g.views[key(name)]; !ok {
			return fmt.Errorf("catalog: no view %s", name)
		}
		delete(g.views, key(name))
		return nil
	})
}

// View resolves a view by name in this catalog's generation.
func (c *Catalog) View(name string) (*View, bool) {
	v, ok := c.current().views[key(name)]
	return v, ok
}

// ViewNames lists views, sorted.
func (c *Catalog) ViewNames() []string {
	var out []string
	for _, v := range c.current().views {
		out = append(out, v.Name)
	}
	sort.Strings(out)
	return out
}

// CreateIndex creates an attachment on a table using the named access
// method (empty for B-tree) and backfills it from existing records.
// Row writes are quiesced for the backfill (QuiesceWrites), so the new
// attachment misses no concurrent write; readers are not blocked.
func (c *Catalog) CreateIndex(name, tableName string, colNames []string, method string, unique bool) (*Index, error) {
	if err := checkNotSystem(tableName, "CREATE INDEX"); err != nil {
		return nil, err
	}
	var ix *Index
	err := c.mutate(func(g *generation) error {
		t, ok := g.tables[key(tableName)]
		if !ok {
			return fmt.Errorf("catalog: no table %s", tableName)
		}
		for _, old := range t.Indexes {
			if ident.Equal(old.Name, name) {
				return fmt.Errorf("catalog: index %s already exists", name)
			}
		}
		if len(colNames) == 0 {
			return fmt.Errorf("catalog: index %s needs key columns", name)
		}
		keyCols := make([]int, len(colNames))
		keyTypes := make([]datum.TypeID, len(colNames))
		for i, cn := range colNames {
			ord := t.ColIndex(cn)
			if ord < 0 {
				return fmt.Errorf("catalog: no column %s in %s", cn, tableName)
			}
			keyCols[i] = ord
			keyTypes[i] = t.Cols[ord].Type
		}
		am, err := c.live().Storage.AccessMethod(method)
		if err != nil {
			return err
		}
		at, err := am.New(keyTypes, unique, c.live().IO)
		if err != nil {
			return err
		}
		// A fault-wrapped access method cannot know the owning table at
		// New time; name the counter bucket now.
		if fa, ok := at.(*storage.FaultAttachment); ok && fa.Owner() == "" {
			fa.SetOwner(t.Name)
		}
		ix = &Index{
			Name:    key(name),
			Table:   t.Name,
			KeyCols: keyCols,
			Method:  am.Name(),
			Caps:    am.Caps(),
			Unique:  unique,
			At:      at,
		}
		// Backfill from stored records with row writes held off, so the
		// attachment ends exactly consistent with the relation. Every
		// physical row is indexed, whatever its version state — index
		// entries cover all images, and scans apply visibility.
		if t.MVCC != nil {
			t.MVCC.QuiesceWrites()
			defer t.MVCC.ResumeWrites()
		}
		it := t.Rel.Scan()
		defer it.Close()
		for {
			row, rid, ok := it.Next()
			if !ok {
				if err := storage.IterErr(it); err != nil {
					return fmt.Errorf("catalog: backfilling %s: %w", name, err)
				}
				break
			}
			if err := at.Insert(extractKey(row, keyCols), rid); err != nil {
				return fmt.Errorf("catalog: backfilling %s: %w", name, err)
			}
		}
		nt := t.clone()
		nt.Indexes = append(nt.Indexes, ix)
		g.tables[key(tableName)] = nt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// DropIndex removes an attachment.
func (c *Catalog) DropIndex(tableName, name string) error {
	if err := checkNotSystem(tableName, "DROP INDEX"); err != nil {
		return err
	}
	return c.mutate(func(g *generation) error {
		t, ok := g.tables[key(tableName)]
		if !ok {
			return fmt.Errorf("catalog: no table %s", tableName)
		}
		for i, ix := range t.Indexes {
			if ident.Equal(ix.Name, name) {
				nt := t.clone()
				nt.Indexes = append(nt.Indexes[:i], nt.Indexes[i+1:]...)
				g.tables[key(tableName)] = nt
				return nil
			}
		}
		return fmt.Errorf("catalog: no index %s on %s", name, tableName)
	})
}

func extractKey(row datum.Row, cols []int) datum.Row {
	k := make(datum.Row, len(cols))
	for i, c := range cols {
		k[i] = row[c]
	}
	return k
}

// coerceRow validates arity, NOT NULL and types, coercing numerics in
// place.
func coerceRow(t *Table, row datum.Row) error {
	if len(row) != len(t.Cols) {
		return fmt.Errorf("catalog: %s: %d values for %d columns", t.Name, len(row), len(t.Cols))
	}
	for i, v := range row {
		if v.IsNull() {
			if t.Cols[i].NotNull {
				return fmt.Errorf("catalog: %s.%s is NOT NULL", t.Name, t.Cols[i].Name)
			}
			continue
		}
		cv, err := datum.Coerce(v, t.Cols[i].Type)
		if err != nil {
			return fmt.Errorf("catalog: %s.%s: %w", t.Name, t.Cols[i].Name, err)
		}
		row[i] = cv
	}
	return nil
}

// checkNotNull enforces NOT NULL on an update image.
func checkNotNull(t *Table, row datum.Row) error {
	for i, v := range row {
		if v.IsNull() && t.Cols[i].NotNull {
			return fmt.Errorf("catalog: %s.%s is NOT NULL", t.Name, t.Cols[i].Name)
		}
	}
	return nil
}

// Analyze recomputes optimizer statistics for a table and publishes
// them as a new schema generation (statistics are part of the
// copy-on-write schema: a compiled plan's stats never change under
// it). A column's distinct values are counted in a distinctSet. The
// scan error (surfaced through storage.IterErr — e.g. an injected
// fault) aborts the refresh: stats computed from a partial scan would
// silently skew every subsequent plan.
func (c *Catalog) Analyze(t *Table) error {
	if t.System {
		// Statistics over a SYS snapshot would be stale by the next
		// statement; the optimizer costs them from live RowCount instead.
		return &SystemObjectError{Name: t.Name, Op: "ANALYZE"}
	}
	n := len(t.Cols)
	distinct := make([]distinctSet, n)
	mins := make([]datum.Value, n)
	maxs := make([]datum.Value, n)
	for i := range distinct {
		distinct[i] = distinctSet{map[uint64]struct{}{}, map[int64]struct{}{}, map[string]struct{}{}, map[string]struct{}{}}
		mins[i], maxs[i] = datum.Null, datum.Null
	}
	var buf []byte
	rows := int64(0)
	it := t.Rel.Scan()
	defer it.Close()
	for {
		row, _, ok := it.Next()
		if !ok {
			if err := storage.IterErr(it); err != nil {
				return fmt.Errorf("catalog: analyzing %s: %w", t.Name, err)
			}
			break
		}
		rows++
		for i, v := range row {
			if v.IsNull() {
				continue
			}
			buf = distinct[i].add(v, buf)
			if mins[i].IsNull() || datum.SortCompare(v, mins[i]) < 0 {
				mins[i] = v
			}
			if maxs[i].IsNull() || datum.SortCompare(v, maxs[i]) > 0 {
				maxs[i] = v
			}
		}
	}
	err := c.mutate(func(g *generation) error {
		cur, ok := g.tables[key(t.Name)]
		if !ok {
			return fmt.Errorf("catalog: no table %s", t.Name)
		}
		nt := cur.clone()
		nt.Stats.Rows = rows
		nt.Stats.Pages = nt.Rel.PageCount()
		nt.Stats.ColCard = make([]int64, n)
		nt.Stats.ColMin = make([]datum.Value, n)
		nt.Stats.ColMax = make([]datum.Value, n)
		for i := range distinct {
			nt.Stats.ColCard[i] = distinct[i].count()
			nt.Stats.ColMin[i] = mins[i]
			nt.Stats.ColMax[i] = maxs[i]
		}
		g.tables[key(t.Name)] = nt
		return nil
	})
	if err != nil {
		return err
	}
	// Freshly measured statistics supersede corrections learned against
	// the stale ones.
	t.clearCardOverlays()
	return nil
}

// distinctSet counts what keying each value by datum.RowKey would, in
// sets typed by the key's form: a FLOAT, or an INT float64 holds
// exactly (RowKey spells both as the float), by its float bits with -0
// as +0 and every NaN as one NaN; any other INT and a STRING by
// themselves; only BOOL and user-defined values by their RowKey bytes.
type distinctSet struct {
	nums       map[uint64]struct{}
	ints       map[int64]struct{}
	strs, keys map[string]struct{}
}

// add counts the non-NULL v; buf is scratch for a RowKey, returned for
// reuse.
func (d *distinctSet) add(v datum.Value, buf []byte) []byte {
	switch t := v.Type(); {
	case t == datum.TInt && float64(v.Int()) < 1<<63 && int64(float64(v.Int())) == v.Int(), t == datum.TFloat:
		f := v.Float()
		switch {
		case f == 0:
			f = 0
		case f != f:
			f = math.NaN()
		}
		d.nums[math.Float64bits(f)] = struct{}{}
	case t == datum.TInt:
		d.ints[v.Int()] = struct{}{}
	case t == datum.TString:
		d.strs[v.Str()] = struct{}{}
	default:
		buf = datum.AppendRowKey(buf[:0], datum.Row{v})
		if _, ok := d.keys[string(buf)]; !ok {
			d.keys[string(buf)] = struct{}{}
		}
	}
	return buf
}

func (d *distinctSet) count() int64 {
	return int64(len(d.nums) + len(d.ints) + len(d.strs) + len(d.keys))
}

// ---------------------------------------------------------------------
// Fault-injection wiring

// AttachFaults decorates this catalog's storage with the fault
// injector: every registered storage manager and access method is
// wrapped through its own registry (re-registration under the same name
// — the LIND87 extension path), and every existing relation and
// attachment is wrapped in place. The in-place rewrap mutates shared
// Table state, so the caller must have quiesced all statements (the
// engine holds its admin latch exclusively).
// starburst:locks db.adminMu:write
func (c *Catalog) AttachFaults(fi *storage.FaultInjector) {
	l := c.live()
	for _, name := range l.Storage.StorageManagerNames() {
		if m, err := l.Storage.StorageManager(name); err == nil {
			l.Storage.ReplaceStorageManager(fi.WrapManager(m))
		}
	}
	for _, name := range l.Storage.AccessMethodNames() {
		if m, err := l.Storage.AccessMethod(name); err == nil {
			l.Storage.ReplaceAccessMethod(fi.WrapMethod(m))
		}
	}
	l.mu.Lock()
	g := l.gen.Load()
	l.faults = fi
	for _, t := range g.tables {
		t.Rel = fi.WrapRelation(t.Name, t.Rel)
		for _, ix := range t.Indexes {
			ix.At = fi.WrapAttachment(t.Name, ix.At)
		}
	}
	l.publish(&generation{tables: g.tables, views: g.views, version: g.version + 1})
	l.mu.Unlock()
}

// DetachFaults removes fault decoration everywhere it was attached.
// Same quiescence requirement as AttachFaults.
// starburst:locks db.adminMu:write
func (c *Catalog) DetachFaults() {
	l := c.live()
	for _, name := range l.Storage.StorageManagerNames() {
		if m, err := l.Storage.StorageManager(name); err == nil {
			l.Storage.ReplaceStorageManager(storage.UnwrapManager(m))
		}
	}
	for _, name := range l.Storage.AccessMethodNames() {
		if m, err := l.Storage.AccessMethod(name); err == nil {
			l.Storage.ReplaceAccessMethod(storage.UnwrapMethod(m))
		}
	}
	l.mu.Lock()
	g := l.gen.Load()
	l.faults = nil
	for _, t := range g.tables {
		t.Rel = storage.UnwrapRelation(t.Rel)
		for _, ix := range t.Indexes {
			ix.At = storage.UnwrapAttachment(ix.At)
		}
	}
	l.publish(&generation{tables: g.tables, views: g.views, version: g.version + 1})
	l.mu.Unlock()
}
