// Command starburst is an interactive shell over the Starburst
// reproduction: it reads Hydrogen statements (terminated by ';'),
// compiles them through all Figure-1 phases, and prints results.
//
// Usage:
//
//	starburst                 # interactive REPL
//	starburst -e 'stmt; ...'  # execute statements and exit
//	starburst -f script.sql   # execute a file and exit
//
// Inside the REPL, "EXPLAIN <stmt>" shows the QGM before and after
// rewrite plus the chosen plan; "EXPLAIN ANALYZE <stmt>" executes the
// statement and shows the plan annotated with actual per-operator row
// counts, timings and memory; "\d" lists tables and views; "\io" shows
// simulated I/O counters; "\timing" toggles elapsed-time reporting;
// "\metrics" dumps the DB metrics registry; "\cache" shows plan-cache
// statistics; "\trace on" streams each statement's span tree (phases,
// operators, wait events) as JSON; "\q" quits. The SYS schema is
// always available: SELECT * FROM SYS.STATEMENTS, SYS.WAITS, ...
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	starburst "repro"
	"repro/internal/sql"
)

func main() {
	eval := flag.String("e", "", "execute the given statements and exit")
	file := flag.String("f", "", "execute statements from a file and exit")
	audit := flag.Bool("audit", false, "verify the QGM after every rewrite-rule firing and audit chosen plans")
	timeout := flag.Duration("timeout", 0, "per-statement timeout (0 = none)")
	maxRows := flag.Int64("max-rows", 0, "per-statement tuple-processing budget (0 = none)")
	obsAddr := flag.String("obs", "", "serve /metrics and /debug/pprof on this address (e.g. 127.0.0.1:6060)")
	dop := flag.Int("dop", 1, "degree of parallelism for eligible queries (1 = serial)")
	planCache := flag.Int("plan-cache", 0, "enable the shared plan cache with this many entries (0 = off)")
	dataDir := flag.String("data-dir", "", "durable data directory (empty = in-memory)")
	storageMgr := flag.String("storage", "", `default storage manager for CREATE TABLE without USING (e.g. "DISK")`)
	flag.Parse()

	opts := []starburst.Option{
		starburst.WithPlanCache(*planCache),
		starburst.WithSettings(starburst.Settings{
			Audit:       *audit,
			Limits:      starburst.Limits{Timeout: *timeout, MaxRows: *maxRows},
			Parallelism: *dop,
		}),
	}
	if *dataDir != "" {
		opts = append(opts, starburst.WithDataDir(*dataDir))
	}
	if *storageMgr != "" {
		opts = append(opts, starburst.WithDefaultStorage(*storageMgr))
	}
	db := starburst.Open(opts...)
	if err := db.OpenErr(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "close:", err)
		}
	}()
	if *obsAddr != "" {
		srv, err := db.StartObsServer(*obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("observability server on http://%s/metrics\n", srv.Addr())
	}
	sh := &shell{db: db, out: os.Stdout, errOut: os.Stderr, timing: true}
	switch {
	case *eval != "":
		exitOn(sh.runScript(*eval))
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		exitOn(sh.runScript(string(data)))
	default:
		sh.repl(os.Stdin)
	}
}

func exitOn(err error) {
	if err != nil {
		os.Exit(1)
	}
}

// shell is one REPL/script session: a DB, the engine Session statements
// run on (so BEGIN/COMMIT/ROLLBACK carry across lines), the sinks
// output goes to, and the \timing toggle.
type shell struct {
	db     *starburst.DB
	sess   *starburst.Session
	out    io.Writer
	errOut io.Writer
	// timing appends "(elapsed)" to statement status lines; toggled by
	// \timing. On by default.
	timing bool
}

// session lazily opens the engine Session every statement runs on.
func (sh *shell) session() *starburst.Session {
	if sh.sess == nil {
		sh.sess = sh.db.NewSession()
	}
	return sh.sess
}

func (sh *shell) runScript(script string) error {
	for _, stmt := range splitStatements(script) {
		if strings.TrimSpace(stmt) == "" {
			continue
		}
		if err := sh.execute(stmt); err != nil {
			fmt.Fprintln(sh.errOut, "error:", err)
			return err
		}
	}
	return nil
}

func (sh *shell) repl(in io.Reader) {
	fmt.Fprintln(sh.out, "Starburst reproduction shell — Hydrogen statements end with ';'")
	fmt.Fprintln(sh.out, `commands: \d (schema)  \io (I/O counters)  \timing (toggle)  \metrics  \cache  \trace on|off  \feedback  \begin \commit \rollback  \q (quit)`)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := ""
	for {
		if buf.Len() == 0 {
			// The * prompt marks an open transaction.
			prompt = "starburst> "
			if sh.sess != nil && sh.sess.Tx() != nil {
				prompt = "starburst*> "
			}
		}
		fmt.Fprint(sh.out, prompt)
		if !sc.Scan() {
			fmt.Fprintln(sh.out)
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if sh.command(trimmed) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		// Run what the lexer ends with a ';' token; keep buffering the
		// rest, also while it holds an unterminated literal. Text the
		// lexer rejects otherwise runs at the line's ';', so that its
		// parse reports the error.
		stmts, rest, open, err := cutStatements(buf.String())
		if err != nil && !strings.Contains(err.Error(), "unterminated") && strings.Contains(line, ";") {
			stmts, open = append(stmts, rest), false
		}
		buf.Reset()
		if open {
			buf.WriteString(rest)
		}
		for _, stmt := range stmts {
			if err := sh.execute(stmt); err != nil {
				fmt.Fprintln(sh.out, "error:", err)
			}
		}
		prompt = "starburst> "
		if buf.Len() > 0 {
			prompt = "      ...> "
		}
	}
}

// command handles one backslash command; reports whether to quit.
func (sh *shell) command(cmd string) (quit bool) {
	switch cmd {
	case `\q`:
		return true
	case `\d`:
		sh.describe()
	case `\io`:
		r, w, ix := sh.db.IOStats()
		fmt.Fprintf(sh.out, "page reads=%d writes=%d index reads=%d\n", r, w, ix)
	case `\timing`:
		sh.timing = !sh.timing
		if sh.timing {
			fmt.Fprintln(sh.out, "timing is on")
		} else {
			fmt.Fprintln(sh.out, "timing is off")
		}
	case `\metrics`:
		if _, err := sh.db.Metrics().WriteTo(sh.out); err != nil {
			fmt.Fprintln(sh.out, "error:", err)
		}
	case `\cache`:
		s := sh.db.PlanCacheStats()
		if s.Capacity == 0 {
			fmt.Fprintln(sh.out, "plan cache is off (start with -plan-cache N)")
			break
		}
		fmt.Fprintf(sh.out, "plan cache: %d/%d entries, %d hits, %d misses, %d evictions, %d invalidations\n",
			s.Size, s.Capacity, s.Hits, s.Misses, s.Evictions, s.Invalidations)
	case `\trace on`:
		sh.db.SetSpanExporter(sh.exportSpan)
		fmt.Fprintln(sh.out, "statement trace export is on")
	case `\trace off`, `\trace`:
		sh.db.SetSpanExporter(nil)
		fmt.Fprintln(sh.out, "statement trace export is off")
	case `\feedback`:
		set := sh.session().Settings()
		set.CardinalityFeedback = !set.CardinalityFeedback
		sh.session().SetSettings(set)
		if set.CardinalityFeedback {
			fmt.Fprintln(sh.out, "cardinality feedback is on (statements run instrumented)")
		} else {
			fmt.Fprintln(sh.out, "cardinality feedback is off")
		}
	case `\begin`, `\commit`, `\rollback`:
		// Sugar for the SQL transaction statements, so a transaction can
		// be driven entirely from backslash commands.
		if err := sh.execute(strings.TrimPrefix(cmd, `\`)); err != nil {
			fmt.Fprintln(sh.out, "error:", err)
		}
	default:
		fmt.Fprintln(sh.out, "unknown command", cmd)
	}
	return false
}

func (sh *shell) describe() {
	cat := sh.db.Catalog()
	for _, name := range cat.TableNames() {
		t, _ := cat.Table(name)
		var cols []string
		for _, c := range t.Cols {
			cols = append(cols, c.Name)
		}
		fmt.Fprintf(sh.out, "table %s (%s) using %s, %d rows", name, strings.Join(cols, ", "), t.SM, t.Rel.RowCount())
		for _, ix := range t.Indexes {
			fmt.Fprintf(sh.out, " [index %s/%s]", ix.Name, ix.Method)
		}
		fmt.Fprintln(sh.out)
	}
	for _, name := range cat.ViewNames() {
		v, _ := cat.View(name)
		fmt.Fprintf(sh.out, "view %s AS %s\n", name, v.Text)
	}
	for _, name := range cat.SystemTableNames() {
		t, _ := cat.Table(name)
		var cols []string
		for _, c := range t.Cols {
			cols = append(cols, c.Name)
		}
		fmt.Fprintf(sh.out, "system table %s (%s)\n", name, strings.Join(cols, ", "))
	}
}

// exportSpan is the \trace sink: one JSON document per statement.
func (sh *shell) exportSpan(span *starburst.StatementSpan) {
	data, err := span.JSON()
	if err != nil {
		fmt.Fprintln(sh.errOut, "trace:", err)
		return
	}
	fmt.Fprintf(sh.out, "trace: %s\n", data)
}

func (sh *shell) execute(stmt string) error {
	stmt = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(stmt), ";"))
	if stmt == "" {
		return nil
	}
	start := time.Now()
	res, err := sh.session().Exec(stmt, nil)
	if err != nil {
		var aerr *starburst.AuditError
		if errors.As(err, &aerr) {
			fmt.Fprintln(sh.errOut, "audit failure — firing trace:")
			for i, f := range aerr.Trace {
				marker := ""
				if i == aerr.Firing {
					marker = "   <-- offending firing"
				}
				fmt.Fprintf(sh.errOut, "  %3d: rule %s on box %d%s\n", i, f.Rule, f.Box, marker)
			}
		}
		return err
	}
	elapsed := time.Since(start)
	if len(res.Columns) > 0 {
		sh.printTable(res)
	}
	suffix := ""
	if sh.timing {
		suffix = fmt.Sprintf(" (%v)", elapsed.Round(time.Microsecond))
	}
	switch {
	case res.Affected > 0:
		fmt.Fprintf(sh.out, "%d row(s) affected%s\n", res.Affected, suffix)
	case len(res.Columns) > 0:
		fmt.Fprintf(sh.out, "%d row(s)%s\n", len(res.Rows), suffix)
	default:
		fmt.Fprintf(sh.out, "ok%s\n", suffix)
	}
	return nil
}

func (sh *shell) printTable(res *starburst.Result) {
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(res.Rows))
	for ri, row := range res.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sep strings.Builder
	for i, c := range res.Columns {
		fmt.Fprintf(sh.out, "%-*s  ", widths[i], c)
		sep.WriteString(strings.Repeat("-", widths[i]))
		sep.WriteString("  ")
	}
	fmt.Fprintln(sh.out)
	fmt.Fprintln(sh.out, strings.TrimRight(sep.String(), " "))
	for _, row := range cells {
		for i, s := range row {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(sh.out, "%-*s  ", w, s)
		}
		fmt.Fprintln(sh.out)
	}
}

// splitStatements splits a script at the ';' tokens the Hydrogen
// lexer finds, so a semicolon inside a string literal, a delimited
// identifier or a comment does not split. Text the lexer rejects runs
// as one statement, whose parse reports the error.
func splitStatements(s string) []string {
	out, rest, open, _ := cutStatements(s)
	if open {
		out = append(out, rest)
	}
	return out
}

// cutStatements cuts s at the ';' tokens the Hydrogen lexer finds:
// stmts are the texts before each, rest the text after the last. open
// reports whether rest holds a token or text the lexer rejects, with
// err the lexer's error.
func cutStatements(s string) (stmts []string, rest string, open bool, err error) {
	lex := sql.NewLexer(s)
	start := 0
	for {
		t, err := lex.Next()
		switch {
		case err != nil:
			return stmts, s[start:], true, err
		case t.Kind == sql.TokEOF:
			return stmts, s[start:], open, nil
		case t.Kind == sql.TokSymbol && t.Text == ";":
			stmts = append(stmts, s[start:t.Pos])
			start, open = t.Pos+1, false
		default:
			open = true
		}
	}
}
