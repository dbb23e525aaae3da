package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroutineDiscipline enforces the repo's concurrency lifecycle contract in
// internal/ and cmd/: nothing may outlive its owner silently. The svc, obs,
// and par planes all spawn workers, and the campus sharding will spawn many
// more; a goroutine without a join is a leak under churn and a data race at
// shutdown, and a ticker or context without a reachable Stop/cancel pins
// timers and parents forever.
//
// Three checks:
//
//   - every `go` statement must have a provable join: the spawned body (a
//     func literal, or a same-module function/method the analyzer can
//     resolve) signals completion by calling (*sync.WaitGroup).Done,
//     sending on a channel, or closing one. A deliberately fire-and-forget
//     goroutine must say so where it is launched:
//
//     go srv.Serve(ln) //coordvet:detached lifecycle bounded by srv.Shutdown
//
//     The justification is mandatory; an annotation on a goroutine that
//     does have a provable join — or on a line with no `go` statement at
//     all — is stale and reported, so annotations cannot outlive the code.
//
//   - every time.NewTicker/NewTimer result must reach a Stop: a .Stop()
//     call (usually deferred) in the same function, or an escape (returned,
//     passed on, stored in a field) that hands the obligation to the owner
//     of the longer-lived value. A dropped result can never be stopped.
//
//   - every context.WithCancel/WithTimeout/WithDeadline cancel func must be
//     used: called, deferred, returned, passed, or stored. Assigning it to
//     `_` leaks the context's resources (go vet's lostcancel, kept here so
//     the whole discipline gates together and fixtures cover it).
//
// The join proof is syntactic, not a dataflow analysis: it asks "does the
// body contain a completion signal", not "is it always reached" — cheap,
// deterministic, and catches the real bug class (a worker nobody waits
// for). Calls the analyzer cannot resolve (function values, external
// packages) are unprovable and need the annotation.
var GoroutineDiscipline = &Analyzer{
	Name: "goroutinediscipline",
	Doc:  "every go statement needs a provable join or //coordvet:detached, every ticker a Stop, every context a cancel",
	Run:  runGoroutineDiscipline,
}

// DetachedMarker opens a fire-and-forget annotation on a go statement:
// //coordvet:detached <why>.
const DetachedMarker = "coordvet:detached"

type detachedAnnot struct {
	pos  token.Position
	tok  token.Pos
	why  string
	used bool
}

func runGoroutineDiscipline(p *Pass) {
	path := p.Pkg.Path
	if !strings.Contains(path, "/internal/") && !strings.Contains(path, "/cmd/") {
		return
	}

	// Parse every //coordvet:detached annotation in the package.
	var annots []*detachedAnnot
	for _, f := range p.Pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Only a comment that *starts* with the marker is an
				// annotation; prose that mentions it (like this package's
				// docs) is not.
				if rest, ok := strings.CutPrefix(c.Text, "//"+DetachedMarker); ok {
					a := &detachedAnnot{pos: p.Prog.Fset.Position(c.Pos()), tok: c.Pos(), why: strings.TrimSpace(rest)}
					annots = append(annots, a)
					if a.why == "" {
						p.Reportf(c.Pos(), "//%s needs a justification after the marker", DetachedMarker)
					}
				}
			}
		}
	}
	// An annotation attaches to a go statement on its own line, the line
	// below, or whose last line it trails (so multi-line `go func(){...}()`
	// can carry it after the closing parenthesis).
	annotFor := func(g *ast.GoStmt) *detachedAnnot {
		pos := p.Prog.Fset.Position(g.Pos())
		end := p.Prog.Fset.Position(g.End())
		for _, a := range annots {
			if a.pos.Filename != pos.Filename {
				continue
			}
			if a.pos.Line == pos.Line || a.pos.Line == pos.Line-1 || a.pos.Line == end.Line {
				return a
			}
		}
		return nil
	}

	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.GoStmt:
					if a := annotFor(s); a != nil {
						a.used = true
						if joinEvidence(p, s) {
							p.Reportf(a.tok, "stale //%s: this goroutine has a provable join; drop the annotation", DetachedMarker)
						}
						return true
					}
					if !joinEvidence(p, s) {
						p.Reportf(s.Pos(), "goroutine has no provable join (WaitGroup Done, channel send, or close) and no //%s annotation",
							DetachedMarker)
					}
				case *ast.CallExpr:
					checkTickerAndCancel(p, fd, s)
				}
				return true
			})
		}
	}

	for _, a := range annots {
		if !a.used {
			p.Reportf(a.tok, "stale //%s: no go statement on this or the adjacent line", DetachedMarker)
		}
	}
}

// joinEvidence reports whether the spawned body provably signals
// completion. Bodies it can see: func literals, and functions or methods
// whose declaration lives in a scanned package.
func joinEvidence(p *Pass, g *ast.GoStmt) bool {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return bodySignalsCompletion(p, lit.Body)
	}
	if fn := p.Callee(g.Call); fn != nil {
		if decl := findFuncDecl(p.Prog, fn); decl != nil && decl.Body != nil {
			return bodySignalsCompletion(p, decl.Body)
		}
	}
	return false
}

// bodySignalsCompletion scans a body (including nested closures, which
// covers `defer wg.Done()` wrappers) for a completion signal.
func bodySignalsCompletion(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if _, isBuiltin := p.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "close" {
					found = true
				}
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// findFuncDecl locates the declaration of fn in any scanned package.
func findFuncDecl(prog *Program, fn *types.Func) *ast.FuncDecl {
	for _, pkg := range prog.Packages {
		if pkg.Types != fn.Pkg() {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && pkg.Info.Defs[fd.Name] == fn {
					return fd
				}
			}
		}
	}
	return nil
}

// checkTickerAndCancel handles the resource half of the discipline at each
// call site.
func checkTickerAndCancel(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	fn := p.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() != "NewTicker" && fn.Name() != "NewTimer" {
			return
		}
		assign := enclosingAssign(fd, call)
		if assign == nil || len(assign.Lhs) != 1 {
			p.Reportf(call.Pos(), "time.%s result is dropped; nothing can ever Stop it", fn.Name())
			return
		}
		id, ok := assign.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			p.Reportf(call.Pos(), "time.%s result is discarded; nothing can ever Stop it", fn.Name())
			return
		}
		obj := p.Pkg.Info.Defs[id]
		if obj == nil {
			obj = p.Pkg.Info.Uses[id]
		}
		if !stopReachable(p, fd, obj, call) {
			p.Reportf(call.Pos(), "time.%s result %s has no reachable Stop in %s and does not escape; defer %s.Stop()",
				fn.Name(), id.Name, fd.Name.Name, id.Name)
		}
	case "context":
		switch fn.Name() {
		case "WithCancel", "WithTimeout", "WithDeadline":
		default:
			return
		}
		assign := enclosingAssign(fd, call)
		if assign == nil || len(assign.Lhs) != 2 {
			return // tuple used some other way; out of scope
		}
		id, ok := assign.Lhs[1].(*ast.Ident)
		if !ok {
			return
		}
		if id.Name == "_" {
			p.Reportf(call.Pos(), "context.%s cancel func is discarded; the context can never be released", fn.Name())
			return
		}
		obj := p.Pkg.Info.Defs[id]
		if obj == nil {
			obj = p.Pkg.Info.Uses[id]
		}
		if obj != nil && !referencedAgain(p, fd, obj, id) {
			p.Reportf(call.Pos(), "context.%s cancel func %s is never used; defer %s()", fn.Name(), id.Name, id.Name)
		}
	}
}

// enclosingAssign finds the assignment statement whose RHS is exactly this
// call, scanning the declaring function.
func enclosingAssign(fd *ast.FuncDecl, call *ast.CallExpr) *ast.AssignStmt {
	var out *ast.AssignStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if out != nil {
			return false
		}
		if a, ok := n.(*ast.AssignStmt); ok && len(a.Rhs) == 1 && ast.Unparen(a.Rhs[0]) == call {
			out = a
			return false
		}
		return true
	})
	return out
}

// stopReachable reports whether the ticker/timer object reaches a Stop
// call or escapes the function (argument, return, send, or assignment into
// a longer-lived value).
func stopReachable(p *Pass, fd *ast.FuncDecl, obj types.Object, origin *ast.CallExpr) bool {
	if obj == nil {
		return false
	}
	refersTo := func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return p.Pkg.Info.Uses[x] == obj || p.Pkg.Info.Defs[x] == obj
		case *ast.UnaryExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && x.Op == token.AND {
				return p.Pkg.Info.Uses[id] == obj
			}
		}
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if x == origin {
				return true
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Stop" && refersTo(sel.X) {
				found = true
				return false
			}
			for _, arg := range x.Args {
				if refersTo(arg) {
					found = true // handed to someone; the obligation travels with it
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if refersTo(r) {
					found = true
					return false
				}
			}
		case *ast.SendStmt:
			if refersTo(x.Value) {
				found = true
				return false
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if _, isSel := ast.Unparen(lhs).(*ast.SelectorExpr); isSel && i < len(x.Rhs) && refersTo(x.Rhs[i]) {
					found = true // stored in a field; the owner stops it
					return false
				}
			}
		}
		return true
	})
	return found
}

// referencedAgain reports whether obj is used anywhere beyond its defining
// identifier — for a cancel func, any use (call, defer, arg, return,
// store) discharges the obligation.
func referencedAgain(p *Pass, fd *ast.FuncDecl, obj types.Object, def *ast.Ident) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && id != def && p.Pkg.Info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
