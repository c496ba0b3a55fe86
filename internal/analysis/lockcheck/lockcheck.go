// Package lockcheck enforces the repo's "guarded by mu" convention.
//
// The concurrency core (discovery.Node, simnet.Network, the registry and
// gist directories) keeps mutable state behind a named mutex field. A
// struct field whose doc or line comment contains "guarded by <mutex>"
// declares that every method access to it must happen while <mutex> (a
// sync.Mutex or sync.RWMutex field of the same struct, or of a struct it
// embeds) is held. A struct that embeds another inherits its guarded
// fields. lockcheck verifies the convention
// intraprocedurally:
//
//   - it tracks Lock/RLock/Unlock/RUnlock calls on the receiver's mutex
//     through straight-line code, if/else, for, switch and select, using
//     a three-valued state (held, unheld, unknown) merged at join points;
//   - methods whose name ends in "Locked" are assumed to be called with
//     the lock held (the convention this codebase already uses for
//     helpers like deliverLocked and announceDueLocked);
//   - a `go func` body starts unheld (the launcher's lock does not
//     transfer); a deferred closure starts unknown; other function
//     literals inherit the current state (they run synchronously in the
//     patterns used here, e.g. sort.Slice comparators);
//   - accesses under an unknown state are not flagged — the pass
//     prefers false negatives over false positives.
//
// The pass is intraprocedural: it does not chase calls, so a helper that
// both locks and accesses is checked on its own, and a helper that needs
// the caller's lock must carry the Locked suffix.
package lockcheck

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"sariadne/internal/analysis"
)

// Analyzer verifies that fields annotated "guarded by <mu>" are only
// accessed while the named mutex is held.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "check that struct fields annotated `// guarded by mu` are only " +
		"accessed by methods while the named mutex field is held",
	Run: run,
}

var guardRe = regexp.MustCompile(`guarded by (\w+)`)

// structGuards records the lock discipline declared by one struct type.
type structGuards struct {
	mutexes map[string]bool   // mutex-typed field names, promoted ones included
	guarded map[string]string // guarded field name → mutex field name
	fields  map[string]bool   // names of the struct's own fields (while collecting)
	embeds  []*types.TypeName // embedded struct types (while collecting)
}

type lockState int

const (
	unheld lockState = iota
	held
	unknown
)

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			names := fd.Recv.List[0].Names
			if len(names) == 0 || names[0].Name == "_" {
				continue
			}
			recvObj := pass.TypesInfo.Defs[names[0]]
			if recvObj == nil {
				continue
			}
			tn := baseTypeName(recvObj.Type())
			sg, ok := guards[tn]
			if !ok {
				continue
			}
			c := &checker{pass: pass, sg: sg, recv: recvObj}
			st := make(state, len(sg.mutexes))
			entry := unheld
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				entry = held
			}
			for mu := range sg.mutexes {
				st[mu] = entry
			}
			c.stmts(fd.Body.List, st)
		}
	}
	return nil
}

// collectGuards finds struct types with mutex fields and "guarded by"
// annotations, reporting annotations that name a non-mutex field. An
// embedded struct's mutexes are promoted, so a field may be guarded by
// one; so are its guarded fields, when the embedding struct shadows
// neither the field nor its mutex.
func collectGuards(pass *analysis.Pass) map[*types.TypeName]*structGuards {
	all := make(map[*types.TypeName]*structGuards)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			sg := &structGuards{mutexes: map[string]bool{}, guarded: map[string]string{}, fields: map[string]bool{}}
			type pendingGuard struct {
				field *ast.Field
				mu    string
			}
			var pending []pendingGuard
			for _, field := range st.Fields.List {
				ft := pass.TypesInfo.Types[field.Type].Type
				for _, name := range field.Names {
					sg.fields[name.Name] = true
				}
				if isMutexType(ft) {
					for _, name := range field.Names {
						sg.mutexes[name.Name] = true
					}
					continue
				}
				if et := baseTypeName(ft); et != nil && len(field.Names) == 0 {
					if s, ok := et.Type().Underlying().(*types.Struct); ok {
						for i := 0; i < s.NumFields(); i++ {
							if isMutexType(s.Field(i).Type()) {
								sg.mutexes[s.Field(i).Name()] = true
							}
						}
						sg.embeds = append(sg.embeds, et)
					}
				}
				comment := ""
				if field.Doc != nil {
					comment += field.Doc.Text()
				}
				if field.Comment != nil {
					comment += field.Comment.Text()
				}
				m := guardRe.FindStringSubmatch(comment)
				if m == nil {
					continue
				}
				pending = append(pending, pendingGuard{field, m[1]})
			}
			// Validate after the full scan so annotations may precede
			// their mutex field in the declaration; invalid ones are
			// reported and dropped rather than tracked against a mutex
			// that does not exist.
			for _, p := range pending {
				if !sg.mutexes[p.mu] {
					pass.Reportf(p.field.Pos(),
						"field is annotated `guarded by %s` but %s is not a sync.Mutex or sync.RWMutex field of this struct",
						p.mu, p.mu)
					continue
				}
				for _, name := range p.field.Names {
					sg.guarded[name.Name] = p.mu
				}
			}
			all[tn] = sg
			return true
		})
	}
	out := make(map[*types.TypeName]*structGuards)
	for tn, sg := range all {
		guarded := make(map[string]string, len(sg.guarded))
		for field, mu := range sg.guarded {
			guarded[field] = mu
		}
		for _, e := range sg.embeds {
			if inner, ok := all[e]; ok {
				for field, mu := range inner.guarded {
					if !sg.fields[field] && !sg.fields[mu] {
						guarded[field] = mu
					}
				}
			}
		}
		if len(guarded) > 0 {
			out[tn] = &structGuards{mutexes: sg.mutexes, guarded: guarded}
		}
	}
	return out
}

func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

func baseTypeName(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// state maps each mutex field name to its tracked lock state.
type state map[string]lockState

func (s state) clone() state {
	out := make(state, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (s state) equal(o state) bool {
	for k, v := range s {
		if o[k] != v {
			return false
		}
	}
	return true
}

// mergeStates joins the states of converging control-flow paths: a mutex
// is held (or unheld) after the join only if every path agrees.
func mergeStates(states []state) state {
	out := states[0].clone()
	for _, s := range states[1:] {
		for k, v := range s {
			if out[k] != v {
				out[k] = unknown
			}
		}
	}
	return out
}

type checker struct {
	pass *analysis.Pass
	sg   *structGuards
	recv types.Object
}

func (c *checker) stmts(list []ast.Stmt, st state) state {
	for _, s := range list {
		st = c.stmt(s, st)
	}
	return st
}

func (c *checker) stmt(s ast.Stmt, st state) state {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if mu, op, ok := c.lockOp(s.X); ok {
			st = st.clone()
			st[mu] = op
			return st
		}
		c.expr(s.X, st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.expr(e, st)
		}
		for _, e := range s.Lhs {
			c.expr(e, st)
		}
	case *ast.IncDecStmt:
		c.expr(s.X, st)
	case *ast.SendStmt:
		c.expr(s.Chan, st)
		c.expr(s.Value, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v, st)
					}
				}
			}
		}
	case *ast.DeferStmt:
		if _, _, ok := c.lockOp(s.Call); ok {
			// Deferred unlock runs at return; the lock stays held for the
			// rest of the body.
			return st
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// A deferred closure runs in an unknowable lock context.
			c.stmts(lit.Body.List, c.uniform(unknown))
		} else {
			c.expr(s.Call.Fun, st)
		}
		for _, a := range s.Call.Args {
			c.expr(a, st)
		}
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// The launcher's lock does not transfer to the goroutine.
			c.stmts(lit.Body.List, c.uniform(unheld))
		} else {
			c.expr(s.Call.Fun, st)
		}
		for _, a := range s.Call.Args {
			c.expr(a, st)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			st = c.stmt(s.Init, st)
		}
		c.expr(s.Cond, st)
		bodyOut := c.stmts(s.Body.List, st.clone())
		var outs []state
		if !terminates(s.Body.List) {
			outs = append(outs, bodyOut)
		}
		if s.Else != nil {
			elseOut := c.stmt(s.Else, st.clone())
			if !stmtTerminates(s.Else) {
				outs = append(outs, elseOut)
			}
		} else {
			outs = append(outs, st)
		}
		if len(outs) == 0 {
			return st // both branches terminate; what follows is unreachable
		}
		return mergeStates(outs)
	case *ast.BlockStmt:
		return c.stmts(s.List, st)
	case *ast.ForStmt:
		if s.Init != nil {
			st = c.stmt(s.Init, st)
		}
		c.expr(s.Cond, st)
		body := s.Body.List
		if s.Post != nil {
			body = append(append([]ast.Stmt(nil), body...), s.Post)
		}
		bodyOut := c.stmts(body, st.clone())
		if bodyOut.equal(st) {
			return st
		}
		return mergeStates([]state{st, bodyOut})
	case *ast.RangeStmt:
		c.expr(s.X, st)
		bodyOut := c.stmts(s.Body.List, st.clone())
		if bodyOut.equal(st) {
			return st
		}
		return mergeStates([]state{st, bodyOut})
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = c.stmt(s.Init, st)
		}
		c.expr(s.Tag, st)
		return c.caseBodies(s.Body, st, !hasDefault(s.Body))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = c.stmt(s.Init, st)
		}
		c.stmt(s.Assign, st)
		return c.caseBodies(s.Body, st, false)
	case *ast.SelectStmt:
		return c.caseBodies(s.Body, st, false)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.expr(e, st)
		}
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, st)
	}
	return st
}

// caseBodies checks each clause of a switch/select body from the same
// entry state and merges the non-terminating exits. fallthroughEntry adds
// the entry state to the merge (a switch with no default may match no
// case at all).
func (c *checker) caseBodies(body *ast.BlockStmt, st state, fallthroughEntry bool) state {
	var outs []state
	for _, cs := range body.List {
		var list []ast.Stmt
		switch cs := cs.(type) {
		case *ast.CaseClause:
			for _, e := range cs.List {
				c.expr(e, st)
			}
			list = cs.Body
		case *ast.CommClause:
			entry := st.clone()
			if cs.Comm != nil {
				entry = c.stmt(cs.Comm, entry)
			}
			out := c.stmts(cs.Body, entry)
			if !terminates(cs.Body) {
				outs = append(outs, out)
			}
			continue
		}
		out := c.stmts(list, st.clone())
		if !terminates(list) {
			outs = append(outs, out)
		}
	}
	if fallthroughEntry {
		outs = append(outs, st)
	}
	if len(outs) == 0 {
		return st
	}
	return mergeStates(outs)
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, cs := range body.List {
		if cc, ok := cs.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// terminates reports whether a statement list always transfers control
// out of the enclosing flow (return, branch, panic).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	return stmtTerminates(list[len(list)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	case *ast.IfStmt:
		return terminates(s.Body.List) && s.Else != nil && stmtTerminates(s.Else)
	}
	return false
}

func (c *checker) uniform(v lockState) state {
	st := make(state, len(c.sg.mutexes))
	for mu := range c.sg.mutexes {
		st[mu] = v
	}
	return st
}

// lockOp recognizes recv.<mu>.Lock/RLock/Unlock/RUnlock/TryLock calls and
// returns the mutex field name and the resulting state.
func (c *checker) lockOp(e ast.Expr) (string, lockState, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", unheld, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", unheld, false
	}
	var after lockState
	switch sel.Sel.Name {
	case "Lock", "RLock":
		after = held
	case "Unlock", "RUnlock":
		after = unheld
	case "TryLock", "TryRLock":
		after = unknown
	default:
		return "", unheld, false
	}
	muSel, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", unheld, false
	}
	id, ok := muSel.X.(*ast.Ident)
	if !ok || c.pass.TypesInfo.Uses[id] != c.recv {
		return "", unheld, false
	}
	if !c.sg.mutexes[muSel.Sel.Name] {
		return "", unheld, false
	}
	return muSel.Sel.Name, after, true
}

// expr walks an expression under the current state, flagging guarded
// field accesses while their mutex is unheld. Function literals are
// checked with the current state: in this codebase they are synchronous
// callbacks (sort comparators and the like); go and defer literals are
// handled by their statements.
func (c *checker) expr(e ast.Expr, st state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.stmts(n.Body.List, st.clone())
			return false
		case *ast.SelectorExpr:
			id, ok := n.X.(*ast.Ident)
			if !ok || c.pass.TypesInfo.Uses[id] != c.recv {
				return true
			}
			mu, guarded := c.sg.guarded[n.Sel.Name]
			if guarded && st[mu] == unheld {
				c.pass.Reportf(n.Pos(),
					"access to %s.%s without holding %s (field is guarded by %s)",
					id.Name, n.Sel.Name, mu, mu)
			}
		}
		return true
	})
}
