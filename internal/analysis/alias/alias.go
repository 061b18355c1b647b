// Package alias is the shared value-tracking layer under the scale-path
// analyzers (atomicsafe, leakcheck). It answers two questions the
// per-analyzer CFG dataflows cannot answer alone:
//
//  1. Intraprocedurally — which locals may hold a tracked value? Track
//     computes a may-alias relation from seed expressions (a sync.Pool Get,
//     an atomic.Pointer Load, a net.Dial) through the function's
//     assignments, following the value-preserving shapes Go code actually
//     uses for these objects: plain copies, parenthesization, slicing,
//     pointer deref/address-of, type assertions, and append (a grown byte
//     buffer still occupies — or at least started from — the pooled
//     backing array).
//
//  2. Interprocedurally — what does a callee do with the value I pass it?
//     Params runs a callee-to-caller fixpoint over the existing call graph
//     and memoizes, per function, which (linearized) parameters have a
//     client-defined property: "stores it somewhere long-lived", "closes
//     it", "puts it back in the pool". Each derived property carries a
//     witness chain naming the callee path it came through, so diagnostics
//     can say not just "this escapes" but "this escapes via a -> b".
//
// The relation is deliberately may-alias and flow-insensitive: kills
// (reassigning a variable to something fresh) are ignored, and aliasing is
// closed bidirectionally over assignments. Flow sensitivity — "after the
// Put", "after the Store" — belongs to the analyzers' own CFG fixpoints;
// this layer only says which names to watch.
package alias

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/callgraph"
)

// Seed is one tracked value origin inside a function.
type Seed struct {
	// Expr is the originating expression (usually a CallExpr).
	Expr ast.Expr
	// Tag is the client's label for this origin, used in diagnostics
	// ("sync.Pool.Get", "net.Dial", ...).
	Tag string
	// Result selects which result of a multi-value call carries the value
	// (0 for single-result calls; os.Open's file is result 0 of 2).
	Result int
}

// Tracker holds one function's computed alias relation.
type Tracker struct {
	info  *types.Info
	Seeds []*Seed
	// objs maps each local object to the set of seeds it may alias.
	objs map[types.Object]map[*Seed]bool
}

// Track computes the may-alias relation for body. seedOf classifies an
// expression as a value origin (returning nil for "not tracked"); it is
// consulted for every right-hand-side expression position. seedObjs, when
// non-nil, pre-tags objects (the Params engine uses it to tag parameters).
func Track(info *types.Info, body ast.Node, seedObjs map[types.Object]*Seed, seedOf func(ast.Expr) *Seed) *Tracker {
	t := &Tracker{info: info, objs: make(map[types.Object]map[*Seed]bool)}
	seen := make(map[*Seed]bool)
	addSeed := func(s *Seed) {
		if s != nil && !seen[s] {
			seen[s] = true
			t.Seeds = append(t.Seeds, s)
		}
	}
	for obj, s := range seedObjs {
		addSeed(s)
		t.tag(obj, s)
	}
	// Memoize the client's classifier per expression: the fixpoint re-visits
	// every edge until stable, and a callback minting a fresh Seed on each
	// visit would never converge.
	var classify func(ast.Expr) *Seed
	if seedOf != nil {
		memo := make(map[ast.Expr]*Seed)
		done := make(map[ast.Expr]bool)
		classify = func(e ast.Expr) *Seed {
			if done[e] {
				return memo[e]
			}
			s := seedOf(e)
			done[e], memo[e] = true, s
			addSeed(s)
			return s
		}
	}

	// Register every seed up front, even ones that never cross an assignment
	// edge (a pool Get buried in a composite literal still needs to answer
	// post-hoc ExprSeeds queries at its use site).
	if classify != nil {
		ast.Inspect(body, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				classify(e)
			}
			return true
		})
	}

	// Collect assignment edges once; the fixpoint below closes over them in
	// any source order (flow-insensitive may-alias). pos is the result index
	// the LHS takes from a multi-value RHS (0 otherwise).
	type edge struct {
		lhs types.Object
		rhs ast.Expr
		pos int
	}
	var edges []edge
	bind := func(lhs ast.Expr, rhs ast.Expr, pos int) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		edges = append(edges, edge{lhs: obj, rhs: rhs, pos: pos})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
				// a, b := f(): Seed.Result picks which LHS gets the tag.
				for i := range n.Lhs {
					bind(n.Lhs[i], n.Rhs[0], i)
				}
				return true
			}
			for i := range n.Lhs {
				if i < len(n.Rhs) {
					bind(n.Lhs[i], n.Rhs[i], 0)
				}
			}
		case *ast.GenDecl:
			for _, sp := range n.Specs {
				vs, ok := sp.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) == 1 && len(vs.Names) > 1 {
					for i, name := range vs.Names {
						bind(name, vs.Values[0], i)
					}
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						bind(name, vs.Values[i], 0)
					}
				}
			}
		}
		return true
	})

	// Fixpoint: propagate seeds across edges until stable. Bidirectional —
	// `x := seed; y := x` tags both, and `pub := fresh; p.Store(pub)`
	// followed by clients asking about `fresh` works too.
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			for _, s := range t.exprSeedsAt(e.rhs, classify, e.pos) {
				if t.tag(e.lhs, s) {
					changed = true
				}
			}
			// Backward: the RHS root object aliases whatever the LHS holds
			// (value identity runs both ways for pointers and slices).
			if root := rootObj(info, e.rhs); root != nil {
				for s := range t.objs[e.lhs] {
					if t.tag(root, s) {
						changed = true
					}
				}
			}
		}
	}
	return t
}

func (t *Tracker) tag(obj types.Object, s *Seed) bool {
	set := t.objs[obj]
	if set == nil {
		set = make(map[*Seed]bool)
		t.objs[obj] = set
	}
	if set[s] {
		return false
	}
	set[s] = true
	return true
}

// SeedsOf returns the seeds obj may alias.
func (t *Tracker) SeedsOf(obj types.Object) []*Seed {
	var out []*Seed
	for _, s := range t.Seeds {
		if t.objs[obj][s] {
			out = append(out, s)
		}
	}
	return out
}

// ExprSeeds returns the seeds the value of e may alias: direct seed match,
// a tagged identifier at its root, or a value-preserving derivation of one.
func (t *Tracker) ExprSeeds(e ast.Expr) []*Seed {
	return t.exprSeedsAt(e, nil, 0)
}

// exprSeedsAt resolves the seeds of an expression. classify is Track's
// memoized seed classifier (nil for post-hoc queries, which instead match
// already-recorded seed expressions). wantPos filters multi-result calls to
// one result index.
func (t *Tracker) exprSeedsAt(e ast.Expr, classify func(ast.Expr) *Seed, wantPos int) []*Seed {
	e = ast.Unparen(e)
	var s *Seed
	if classify != nil {
		s = classify(e)
	} else {
		for _, cand := range t.Seeds {
			if cand.Expr == e {
				s = cand
				break
			}
		}
	}
	if s != nil {
		if s.Result == wantPos {
			return []*Seed{s}
		}
		return nil
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := t.info.Uses[e]
		if obj == nil {
			obj = t.info.Defs[e]
		}
		if obj == nil {
			return nil
		}
		return t.SeedsOf(obj)
	case *ast.SliceExpr:
		return t.exprSeedsAt(e.X, classify, 0)
	case *ast.StarExpr:
		return t.exprSeedsAt(e.X, classify, 0)
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			return t.exprSeedsAt(e.X, classify, 0)
		}
	case *ast.TypeAssertExpr:
		return t.exprSeedsAt(e.X, classify, 0)
	case *ast.CallExpr:
		// append(x, ...) keeps (or started from) x's backing array.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
			return t.exprSeedsAt(e.Args[0], classify, 0)
		}
	}
	return nil
}

// rootObj finds the identifier object at the value-preserving root of e
// (nil when the root is not a plain local: selectors and index expressions
// are derivations into other objects, not aliases of the whole).
func rootObj(info *types.Info, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if o := info.Uses[e]; o != nil {
			return o
		}
		return info.Defs[e]
	case *ast.SliceExpr:
		return rootObj(info, e.X)
	case *ast.StarExpr:
		return rootObj(info, e.X)
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			return rootObj(info, e.X)
		}
	case *ast.TypeAssertExpr:
		return rootObj(info, e.X)
	}
	return nil
}

// ---- interprocedural parameter summaries ----

// Witness explains one parameter property: Why is the direct reason, Chain
// the callee path (outermost first) it was derived through — empty when the
// property holds directly in the function itself.
type Witness struct {
	Why   string
	Chain []*types.Func
}

// ChainString renders "a -> b" for diagnostics ("" when direct).
func (w *Witness) ChainString() string {
	s := ""
	for i, fn := range w.Chain {
		if i > 0 {
			s += " -> "
		}
		s += fn.Name()
	}
	return s
}

// Summary maps functions to the linearized parameter indices (receiver
// first, when present) holding a property.
type Summary struct {
	m map[*types.Func]map[int]*Witness
}

// Has returns the witness for fn's linearized parameter idx, or nil.
func (s *Summary) Has(fn *types.Func, idx int) *Witness {
	if s == nil || fn == nil {
		return nil
	}
	return s.m[fn][idx]
}

// FuncInfo hands the direct-property callback everything it needs for one
// function: the node, its types.Info, and the param alias query.
type FuncInfo struct {
	Node *callgraph.Node
	Info *types.Info
	// ParamOf returns the linearized parameter index e's value may alias,
	// or -1. When e aliases several params the lowest index wins.
	ParamOf func(e ast.Expr) int
}

// Params computes an interprocedural parameter-property summary: direct
// reports the property's direct sites in one function (param index ->
// reason), and the fixpoint adds derived properties — a caller's param k
// gets the property when it is passed in a position whose callee param has
// it. Edges inside go statements and function literals still propagate
// (handing a conn to a goroutine that closes it still closes it); clients
// needing stricter semantics encode them in direct.
func Params(g *callgraph.Graph, direct func(fi *FuncInfo) map[int]string) *Summary {
	sum := &Summary{m: make(map[*types.Func]map[int]*Witness)}
	trackers := make(map[*callgraph.Node]*Tracker)
	paramOf := make(map[*callgraph.Node]func(ast.Expr) int)

	for _, n := range g.Nodes() {
		if n.Decl == nil || n.Decl.Body == nil || n.Src == nil {
			continue
		}
		info := n.Src.Info
		seedObjs := make(map[types.Object]*Seed)
		params := linearParams(n.Func)
		for i, p := range params {
			if p != nil {
				seedObjs[p] = &Seed{Tag: "param", Result: i}
			}
		}
		tr := Track(info, n.Decl.Body, seedObjs, nil)
		trackers[n] = tr
		po := func(tr *Tracker, params []*types.Var) func(ast.Expr) int {
			return func(e ast.Expr) int {
				best := -1
				for _, s := range tr.ExprSeeds(e) {
					if s.Tag == "param" && (best == -1 || s.Result < best) {
						best = s.Result
					}
				}
				return best
			}
		}(tr, params)
		paramOf[n] = po
		for idx, why := range direct(&FuncInfo{Node: n, Info: info, ParamOf: po}) {
			sum.set(n.Func, idx, &Witness{Why: why})
		}
	}

	// Callee-to-caller fixpoint with witness chains.
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes() {
			po := paramOf[n]
			if po == nil {
				continue
			}
			for _, e := range n.Out {
				calleeProps := sum.m[e.Callee.Func]
				if len(calleeProps) == 0 {
					continue
				}
				args := LinearArgs(n.Src.Info, e.Site)
				for j, w := range calleeProps {
					if j >= len(args) || args[j] == nil {
						continue
					}
					k := po(args[j])
					if k < 0 || sum.m[n.Func][k] != nil {
						continue
					}
					chain := append([]*types.Func{e.Callee.Func}, w.Chain...)
					sum.set(n.Func, k, &Witness{Why: w.Why, Chain: chain})
					changed = true
				}
			}
		}
	}
	return sum
}

func (s *Summary) set(fn *types.Func, idx int, w *Witness) {
	if s.m[fn] == nil {
		s.m[fn] = make(map[int]*Witness)
	}
	s.m[fn][idx] = w
}

// linearParams returns fn's parameters with the receiver (when present)
// first, matching LinearArgs' argument layout.
func linearParams(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Var
	if sig.Recv() != nil {
		out = append(out, sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// LinearArgs returns a call's argument expressions in linearized order: for
// a method call the receiver expression comes first. A nil slot marks an
// argument with no usable expression (method values, conversions).
func LinearArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			out = append(out, sel.X)
		}
	}
	for _, a := range call.Args {
		out = append(out, a)
	}
	return out
}

// ReturnsTracked finds every function one of whose returned values may
// alias a tracked origin: directly (a return expression isTracked classifies)
// or transitively (returning the result of another returning function).
// The result maps each such function to a short description of the origin.
func ReturnsTracked(g *callgraph.Graph, isTracked func(info *types.Info, e ast.Expr) string) map[*types.Func]string {
	out := make(map[*types.Func]string)
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes() {
			if n.Decl == nil || n.Decl.Body == nil || n.Src == nil || out[n.Func] != "" {
				continue
			}
			info := n.Src.Info
			// One memo shared by Track's fixpoint and the return-statement
			// query below, so both see the identical Seed instances.
			memo := make(map[ast.Expr]*Seed)
			done := make(map[ast.Expr]bool)
			seedOf := func(e ast.Expr) *Seed {
				if done[e] {
					return memo[e]
				}
				var s *Seed
				if why := isTracked(info, e); why != "" {
					s = &Seed{Expr: e, Tag: why}
				} else if call, ok := e.(*ast.CallExpr); ok {
					if fn := calleeFunc(info, call); fn != nil && out[fn] != "" {
						s = &Seed{Expr: e, Tag: out[fn]}
					}
				}
				done[e], memo[e] = true, s
				return s
			}
			tr := Track(info, n.Decl.Body, nil, seedOf)
			why := ""
			ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
				if why != "" {
					return false
				}
				if _, ok := x.(*ast.FuncLit); ok {
					return false
				}
				ret, ok := x.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, r := range ret.Results {
					if ss := tr.exprSeedsAt(r, seedOf, 0); len(ss) > 0 {
						why = ss[0].Tag
						break
					}
				}
				return true
			})
			if why != "" {
				out[n.Func] = why
				changed = true
			}
		}
	}
	return out
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fn].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[fn.Sel].(*types.Func)
		return f
	}
	return nil
}
