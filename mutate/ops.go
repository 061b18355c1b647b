package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
)

// Mutant is one deliberate defect: an operator applied at one site.
type Mutant struct {
	ID    string
	Class string
	File  string // repository-relative, slash-separated
	Func  string // "Func" or "Type.Method"; "A|B" tries A first
	Op    Operator
	// Equivalent, when set, says why the mutant cannot change behaviour:
	// its kills are recorded but decide nothing.
	Equivalent string
}

// Operator rewrites one function. It receives the file's source, its parse,
// and the function, and returns the edited source plus the byte offset of
// the site it changed.
type Operator struct {
	Name  string
	apply func(src []byte, fset *token.FileSet, fn *ast.FuncDecl) ([]byte, int, error)
}

// Apply returns the mutated file and the 1-based line of the site.
func (m Mutant) Apply(src []byte) ([]byte, int, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, m.File, src, parser.ParseComments)
	if err != nil {
		return nil, 0, err
	}
	var fn *ast.FuncDecl
	for _, name := range strings.Split(m.Func, "|") {
		if fn = findFunc(f, name); fn != nil {
			break
		}
	}
	if fn == nil {
		return nil, 0, fmt.Errorf("%s: no function %s in %s", m.ID, m.Func, m.File)
	}
	out, at, err := m.Op.apply(src, fset, fn)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %s in %s: %w", m.ID, m.Op.Name, m.Func, err)
	}
	if bytes.Equal(out, src) {
		return nil, 0, fmt.Errorf("%s: operator left %s unchanged", m.ID, m.File)
	}
	if _, err := parser.ParseFile(token.NewFileSet(), m.File, out, 0); err != nil {
		return nil, 0, fmt.Errorf("%s: mutated source does not parse: %w", m.ID, err)
	}
	return out, 1 + bytes.Count(src[:at], []byte("\n")), nil
}

func findFunc(f *ast.File, name string) *ast.FuncDecl {
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		got := fn.Name.Name
		if fn.Recv != nil && len(fn.Recv.List) == 1 {
			t := fn.Recv.List[0].Type
			if st, ok := t.(*ast.StarExpr); ok {
				t = st.X
			}
			if id, ok := t.(*ast.Ident); ok {
				got = id.Name + "." + got
			}
		}
		if got == name {
			return fn
		}
	}
	return nil
}

// calls lists the calls in fn whose function or method name is name, in
// source order.
func calls(fn *ast.FuncDecl, name string) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch f := c.Fun.(type) {
		case *ast.Ident:
			if f.Name == name {
				out = append(out, c)
			}
		case *ast.SelectorExpr:
			if f.Sel.Name == name {
				out = append(out, c)
			}
		}
		return true
	})
	return out
}

// stmtSlot is a statement and the list that holds it.
type stmtSlot struct {
	list []ast.Stmt
	i    int
}

// enclosing returns the innermost statement held in a statement list that
// contains n: for a call in an if's init or condition that is the whole if.
func enclosing(fn *ast.FuncDecl, n ast.Node) (stmtSlot, bool) {
	var best stmtSlot
	found := false
	visit := func(list []ast.Stmt) {
		for i, s := range list {
			if s.Pos() <= n.Pos() && n.End() <= s.End() {
				best, found = stmtSlot{list, i}, true
			}
		}
	}
	ast.Inspect(fn.Body, func(x ast.Node) bool {
		switch b := x.(type) {
		case *ast.BlockStmt:
			visit(b.List)
		case *ast.CaseClause:
			visit(b.Body)
		case *ast.CommClause:
			visit(b.Body)
		}
		return true
	})
	return best, found
}

func off(fset *token.FileSet, p token.Pos) int { return fset.Position(p).Offset }

func splice(src []byte, from, to int, repl string) []byte {
	out := make([]byte, 0, len(src)+len(repl))
	out = append(out, src[:from]...)
	out = append(out, repl...)
	return append(out, src[to:]...)
}

// dropStmt removes the statement around call; a call that is the value of a
// return becomes nil instead.
func dropStmt(src []byte, fset *token.FileSet, fn *ast.FuncDecl, call *ast.CallExpr) ([]byte, int, error) {
	slot, ok := enclosing(fn, call)
	if !ok {
		return nil, 0, fmt.Errorf("call is not inside a statement list")
	}
	s := slot.list[slot.i]
	if _, ok := s.(*ast.ReturnStmt); ok {
		return splice(src, off(fset, call.Pos()), off(fset, call.End()), "nil"), off(fset, call.Pos()), nil
	}
	return splice(src, off(fset, s.Pos()), off(fset, s.End()), ""), off(fset, s.Pos()), nil
}

// dropCall deletes the statement holding the nth call named name.
func dropCall(name string, nth int) Operator {
	return Operator{"drop " + name, func(src []byte, fset *token.FileSet, fn *ast.FuncDecl) ([]byte, int, error) {
		cs := calls(fn, name)
		if nth >= len(cs) {
			return nil, 0, fmt.Errorf("%d calls to %s, want #%d", len(cs), name, nth)
		}
		return dropStmt(src, fset, fn, cs[nth])
	}}
}

// dropLock deletes the nth recv.Lock() or recv.RLock() statement and the
// first recv.Unlock()/RUnlock() statement (deferred or not) after it.
func dropLock(recv string, nth int) Operator {
	return Operator{"drop " + recv + " lock pair", func(src []byte, fset *token.FileSet, fn *ast.FuncDecl) ([]byte, int, error) {
		text := func(n ast.Node) string { return string(src[off(fset, n.Pos()):off(fset, n.End())]) }
		var locks, unlocks []ast.Stmt
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = s.Call
			}
			if call == nil {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || text(sel.X) != recv {
				return true
			}
			switch sel.Sel.Name {
			case "Lock", "RLock":
				if _, deferred := n.(*ast.DeferStmt); !deferred {
					locks = append(locks, n.(ast.Stmt))
				}
			case "Unlock", "RUnlock":
				unlocks = append(unlocks, n.(ast.Stmt))
			}
			return true
		})
		if nth >= len(locks) {
			return nil, 0, fmt.Errorf("%d locks of %s, want #%d", len(locks), recv, nth)
		}
		l := locks[nth]
		for _, u := range unlocks {
			if u.Pos() > l.Pos() {
				out := splice(src, off(fset, u.Pos()), off(fset, u.End()), "")
				return splice(out, off(fset, l.Pos()), off(fset, l.End()), ""), off(fset, l.Pos()), nil
			}
		}
		return nil, 0, fmt.Errorf("no unlock of %s after lock #%d", recv, nth)
	}}
}

// discardErr replaces the if statement that checks the nth call named name
// with `_ = call`: the call still runs, its error is dropped.
func discardErr(name string, nth int) Operator {
	return Operator{"discard " + name + " error", func(src []byte, fset *token.FileSet, fn *ast.FuncDecl) ([]byte, int, error) {
		cs := calls(fn, name)
		if nth >= len(cs) {
			return nil, 0, fmt.Errorf("%d calls to %s, want #%d", len(cs), name, nth)
		}
		slot, ok := enclosing(fn, cs[nth])
		if !ok {
			return nil, 0, fmt.Errorf("call is not inside a statement list")
		}
		s, ok := slot.list[slot.i].(*ast.IfStmt)
		if !ok || s.Init == nil {
			return nil, 0, fmt.Errorf("call is not the init of an if statement")
		}
		c := cs[nth]
		repl := "_ = " + string(src[off(fset, c.Pos()):off(fset, c.End())])
		return splice(src, off(fset, s.Pos()), off(fset, s.End()), repl), off(fset, s.Pos()), nil
	}}
}

// hoist moves the statement holding the nth call named name up by `by`
// statements within its list. With top set, the statement moved is the one
// in the function body's own list.
func hoist(name string, nth, by int, top bool) Operator {
	return Operator{fmt.Sprintf("hoist %s by %d", name, by), func(src []byte, fset *token.FileSet, fn *ast.FuncDecl) ([]byte, int, error) {
		cs := calls(fn, name)
		if nth >= len(cs) {
			return nil, 0, fmt.Errorf("%d calls to %s, want #%d", len(cs), name, nth)
		}
		slot, ok := enclosing(fn, cs[nth])
		if top {
			for i, s := range fn.Body.List {
				if s.Pos() <= cs[nth].Pos() && cs[nth].End() <= s.End() {
					slot = stmtSlot{fn.Body.List, i}
				}
			}
		}
		if !ok || slot.i < by {
			return nil, 0, fmt.Errorf("no %d statements above the call", by)
		}
		s, above := slot.list[slot.i], slot.list[slot.i-by]
		stmt := string(src[off(fset, s.Pos()):off(fset, s.End())])
		out := splice(src, off(fset, s.Pos()), off(fset, s.End()), "")
		return splice(out, off(fset, above.Pos()), off(fset, above.Pos()), stmt+"; "), off(fset, above.Pos()), nil
	}}
}

// rewrite replaces the nth occurrence of old in the function's source.
func rewrite(old, repl string, nth int) Operator {
	return Operator{fmt.Sprintf("rewrite %q", old), func(src []byte, fset *token.FileSet, fn *ast.FuncDecl) ([]byte, int, error) {
		start, end := off(fset, fn.Pos()), off(fset, fn.End())
		at := start
		for i := 0; ; i++ {
			k := bytes.Index(src[at:end], []byte(old))
			if k < 0 {
				return nil, 0, fmt.Errorf("%d occurrences of %q, want #%d", i, old, nth)
			}
			at += k
			if i == nth {
				return splice(src, at, at+len(old), repl), at, nil
			}
			at += len(old)
		}
	}}
}
