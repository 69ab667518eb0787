package main

import (
	"go/ast"
	"regexp"
	"sort"
	"strings"
)

// wait-event is annotation-driven: a function whose doc comment carries
//
//	// starburst:waits <EVENT> [<EVENT> ...]
//
// declares "this function is a blocking site that records the named
// wait events" (see internal/obs/wait.go). The rule keeps those
// annotations truthful:
//
//  1. every event name must be a known wait-event class;
//  2. the annotated function's body (closures included) must contain at
//     least one wait-recorder call (Record / RecordWait / recordWait);
//  3. for each declared event, the body must reference that event's
//     obs constant (e.g. EXCHANGE ⇒ WaitExchange), so an annotation
//     cannot drift away from what the site actually records.
var waitEventAnalyzer = &analyzer{
	name: "wait-event",
	doc:  "starburst:waits-annotated blocking sites must call a wait recorder and reference each declared event's constant",
	run:  runWaitEvent,
}

// waitEventConsts maps annotation event names to the obs constant a
// recording call references; mirrors internal/obs waitEventNames.
var waitEventConsts = map[string]string{
	"WAL_APPEND":   "WaitWALAppend",
	"WAL_SYNC":     "WaitWALSync",
	"BUFPOOL_LOAD": "WaitBufPoolLoad",
	"BUFPOOL_WAIT": "WaitBufPoolWait",
	"ADMIN_LATCH":  "WaitAdminLatch",
	"EXCHANGE":     "WaitExchange",
	"CANCEL_STALL": "WaitCancelStall",
}

var (
	waitAnnoStart = regexp.MustCompile(`^//\s*starburst:waits\b`)
	waitAnnoRe    = regexp.MustCompile(`^//\s*starburst:waits\s+([A-Z][A-Z0-9_]*(?:\s+[A-Z][A-Z0-9_]*)*)\s*$`)
)

func knownWaitEvents() string {
	names := make([]string, 0, len(waitEventConsts))
	for n := range waitEventConsts {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

func runWaitEvent(p *pass) {
	for _, f := range p.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			var events []string
			for _, c := range fd.Doc.List {
				if !waitAnnoStart.MatchString(c.Text) {
					continue
				}
				m := waitAnnoRe.FindStringSubmatch(c.Text)
				if m == nil {
					p.report(c.Pos(), "malformed starburst:waits annotation %q; want \"// starburst:waits <EVENT> [<EVENT> ...]\"", c.Text)
					continue
				}
				for _, ev := range strings.Fields(m[1]) {
					if _, known := waitEventConsts[ev]; !known {
						p.report(fd.Pos(), "%s declares unknown wait event %s; known events: %s", funcLabel(fd), ev, knownWaitEvents())
						continue
					}
					events = append(events, ev)
				}
			}
			if len(events) == 0 || fd.Body == nil {
				continue
			}
			recorders, idents := scanWaitBody(fd.Body)
			if recorders == 0 {
				p.report(fd.Pos(), "%s is annotated starburst:waits %s but records no wait event (no Record/RecordWait/recordWait call in its body)",
					funcLabel(fd), strings.Join(events, " "))
				continue
			}
			for _, ev := range events {
				if !idents[waitEventConsts[ev]] {
					p.report(fd.Pos(), "%s declares wait event %s but never references %s; the annotation and the recorded event must agree",
						funcLabel(fd), ev, waitEventConsts[ev])
				}
			}
		}
	}
}

// scanWaitBody walks a function body (function literals included, since
// blocking sites often record inside a worker or flush closure) and
// returns the number of wait-recorder calls plus the set of identifier
// names referenced anywhere in the body.
func scanWaitBody(body *ast.BlockStmt) (recorders int, idents map[string]bool) {
	idents = map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			idents[x.Name] = true
		case *ast.CallExpr:
			name := ""
			switch fun := x.Fun.(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			}
			switch name {
			case "Record", "RecordWait", "recordWait":
				recorders++
			}
		}
		return true
	})
	return recorders, idents
}
