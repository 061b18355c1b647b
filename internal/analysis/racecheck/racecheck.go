// Package racecheck is the deltavet suite's static data-race detector: a
// compositional lockset analysis in the RacerD tradition, specialized to the
// conventions the sharded server actually uses. It answers, without running
// the code, the question the -race runs answer only under a lucky
// interleaving: "which lock guards this field, and is every write under it?"
//
// Three cooperating pieces:
//
//  1. Lockset dataflow. A forward must-analysis over the per-function CFG
//     computes, at every program point, the set of mutexes provably held on
//     ALL paths reaching that point — with the RLock/Lock mode distinction
//     (a write needs the write lock), defer-aware release (a deferred
//     Unlock keeps the lock held to the end of the body), and the
//     `//deltavet:lockorder-helper` lock-set helpers understood as may-
//     acquire/may-release summaries (their loops would otherwise defeat the
//     must-analysis: a zero-iteration range path holds nothing). Summaries
//     are interprocedural both ways: a callee that net-acquires or
//     net-releases locks (batchLocks.lock / unlockAllShards) flows its
//     effect into the caller's lockset with a named witness chain, and an
//     unexported function called only with a lock held inherits that lock
//     as its entry context (the must-intersection over every static call
//     site), so accesses inside interior helpers are attributed correctly.
//
//  2. Guarded-by inference. Lock identity is type-level: a mutex field
//     (fileShard.mu) is one lock however many instances exist, so
//     `s.shards[i].mu` guarding `s.shards[i].files` is recognized through
//     receiver aliases and shard-slice indexing without instance-sensitive
//     points-to analysis (the standard RacerD coarsening: a lock on stripe
//     A "covers" an access to stripe B — cross-stripe confusion is left to
//     the tests). Per struct field, every
//     access in the module votes for the locks held at that access; a lock
//     held at a strict majority of the non-exempt sites (and at least two
//     of them) becomes the field's inferred guard. An explicit
//     `//deltavet:guardedby <lockexpr>` annotation on the field overrides
//     inference (`//deltavet:guardedby none` declares the field
//     deliberately unguarded — confined or externally synchronized).
//
//  3. The race report. A write to a guarded field with the guard absent
//     from the lockset — or held only in read mode — is a finding, carrying
//     the inference evidence (vote count and exemplar guarded sites, with
//     the witness chain when the guard arrived via a helper or a caller's
//     context). Reads are voters, not findings: the server's intentional
//     dirty-read paths stay legal, and a racy read against an unlocked
//     write is reported at the write.
//
// Escape hatches for the idioms the suite already knows are legal:
// pre-publication initialization is exempt (an access through a value the
// alias layer traces to a fresh allocation in the same function, before any
// `go` statement has possibly run, cannot race — no other goroutine holds a
// reference yet; inside a function literal the same window covers values the
// literal itself allocates); a direct store into a by-value struct held in a
// local or parameter (`cfg.BlockSize = n` on a `Config` value) mutates the
// local copy, which nothing can alias; a literal invoked directly by a defer
// (`defer func() { ... }()`) runs in its encloser's frame at exit and
// inherits the encloser's exit lockset; fields of sync/atomic type, and
// fields accessed through sync/atomic functions, belong to atomicsafe's
// domain; channel fields synchronize themselves; and single-goroutine-
// confined types fall out of inference naturally — their accesses never hold
// locks, so no guard ever reaches a majority and nothing is reported.
//
// Soundness limits (deliberate, documented): calls through function values
// have no summaries; a write through a plain local alias of a field value
// (`m := s.files; m[k] = v`) is recorded at the alias read, not the write;
// embedded (promoted) mutexes are not recognized as locks; goroutine
// spawns hidden behind callees do not end the pre-publication window; and a
// value-typed local captured by a concurrently-running literal is still
// treated as an unaliased copy.
package racecheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/alias"
	"repro/internal/analysis/cfg"
)

// GuardMark is the explicit guarded-by annotation: a comment on a struct
// field, `//deltavet:guardedby <lockexpr>`, where lockexpr names a mutex
// field of the same struct ("mu"), a mutex field of another struct in the
// package ("Server.clientMu"), a package-level mutex var, or "none" to
// declare the field deliberately unguarded.
const GuardMark = "deltavet:guardedby"

// helperMark marks the shard lock-set helpers (the only functions that take
// several shard locks, in ascending order): the annotated function's lock
// effects are summarized with may semantics (its acquisition loops defeat a
// must-analysis).
const helperMark = "deltavet:lockorder-helper"

// Analyzer is the racecheck checker.
var Analyzer = &analysis.Analyzer{
	Name: "racecheck",
	Doc:  "writes to a lock-guarded struct field must hold the guard in write mode (guards inferred by voting across all accesses, or declared with //deltavet:guardedby)",
	Run:  run,
}

// ---- lockset lattice ----

type lockMode uint8

const (
	modeR lockMode = 1 // read lock (RLock)
	modeW lockMode = 2 // write lock (Lock); covers modeR
)

// lockState is the dataflow fact at one program point: the locks that MUST
// be held on every path here (with the strongest mode provable on all of
// them), how each arrived (for witness rendering), and whether a goroutine
// may already have been spawned (which closes the pre-publication window).
type lockState struct {
	held   map[types.Object]lockMode
	how    map[types.Object]string
	goSeen bool
}

func newLockState() *lockState {
	return &lockState{held: map[types.Object]lockMode{}, how: map[types.Object]string{}}
}

func (s *lockState) clone() *lockState {
	c := &lockState{
		held:   make(map[types.Object]lockMode, len(s.held)),
		how:    make(map[types.Object]string, len(s.how)),
		goSeen: s.goSeen,
	}
	for k, v := range s.held {
		c.held[k] = v
		c.how[k] = s.how[k]
	}
	return c
}

// meet intersects o into s (must-analysis join): a lock survives only if
// held on both paths, at the weaker of the two modes. goSeen is a may-bit.
func (s *lockState) meet(o *lockState) {
	for k, v := range s.held {
		ov, ok := o.held[k]
		if !ok {
			delete(s.held, k)
			delete(s.how, k)
			continue
		}
		if ov < v {
			s.held[k] = ov
		}
	}
	s.goSeen = s.goSeen || o.goSeen
}

func (s *lockState) equal(o *lockState) bool {
	if s.goSeen != o.goSeen || len(s.held) != len(o.held) {
		return false
	}
	for k, v := range s.held {
		if o.held[k] != v {
			return false
		}
	}
	return true
}

func (s *lockState) acquire(obj types.Object, m lockMode, how string) {
	if cur, ok := s.held[obj]; !ok || m > cur {
		s.held[obj] = m
		s.how[obj] = how
	}
}

func (s *lockState) release(obj types.Object) bool {
	if _, ok := s.held[obj]; ok {
		delete(s.held, obj)
		delete(s.how, obj)
		return true
	}
	return false
}

// ---- interprocedural summaries ----

// summary is one function's net lock effect as seen by a caller: acq is
// what it holds for the caller after it returns (must, except helpers which
// are may by design), rel what it releases of the caller's locks.
type summary struct {
	acq    map[types.Object]lockMode
	acqHow map[types.Object]string
	rel    map[types.Object]bool
}

func (s *summary) empty() bool { return s == nil || (len(s.acq) == 0 && len(s.rel) == 0) }

// ---- access sites ----

// site is one read or write of a tracked struct field.
type site struct {
	fn     *types.Func // enclosing function (the lit's encloser for FuncLit bodies)
	pkg    *types.Package
	pos    token.Pos
	p      token.Position
	write  bool
	held   map[types.Object]lockMode
	how    map[types.Object]string
	exempt string // non-empty: excluded from votes and findings, with the reason
}

// guardDecl is one parsed //deltavet:guardedby annotation.
type guardDecl struct {
	none bool
	lock types.Object
	raw  string
}

type finding struct {
	pkg *types.Package
	pos token.Pos
	msg string
}

// unit is one analyzable body: a function declaration, or a function
// literal. A detached literal analyzes with an empty entry lockset — it runs
// at an unknown time, possibly on another goroutine; a literal invoked
// directly by a defer (deferredIn != nil) runs in its encloser's frame at
// exit and inherits the encloser's exit lockset.
type unit struct {
	fn         *types.Func
	pkg        *analysis.Package
	info       *types.Info
	fset       *token.FileSet
	body       *ast.BlockStmt
	g          *cfg.Graph
	isLit      bool
	deferredIn *unit
	// fresh is the lazily built alias tracker for locally allocated values
	// (the pre-publication escape hatch).
	fresh *alias.Tracker
}

type fact struct {
	prog     *analysis.Program
	analyzed map[*types.Package]bool

	helpers      map[*types.Func]bool
	freshFns     map[*types.Func]string
	atomicFields map[*types.Var]bool
	guards       map[*types.Var]*guardDecl

	units    []*unit
	byFn     map[*types.Func]*unit
	sums     map[*types.Func]*summary
	entry    map[*types.Func]map[types.Object]lockMode
	entryHow map[*types.Func]string

	lockName  map[types.Object]string
	fieldName map[*types.Var]string

	sites    map[*types.Var][]*site
	fields   []*types.Var // deterministic field order
	findings []finding
}

func run(pass *analysis.Pass) error {
	f := pass.Prog.Fact(pass.Analyzer, func(prog *analysis.Program) any {
		return buildFact(prog)
	}).(*fact)
	for _, fd := range f.findings {
		if fd.pkg == pass.Pkg {
			pass.Reportf(fd.pos, "%s", fd.msg)
		}
	}
	return nil
}

// ---- fact construction ----

func buildFact(prog *analysis.Program) *fact {
	f := &fact{
		prog:         prog,
		analyzed:     make(map[*types.Package]bool),
		helpers:      make(map[*types.Func]bool),
		atomicFields: make(map[*types.Var]bool),
		guards:       make(map[*types.Var]*guardDecl),
		byFn:         make(map[*types.Func]*unit),
		sums:         make(map[*types.Func]*summary),
		entry:        make(map[*types.Func]map[types.Object]lockMode),
		entryHow:     make(map[*types.Func]string),
		lockName:     make(map[types.Object]string),
		fieldName:    make(map[*types.Var]string),
		sites:        make(map[*types.Var][]*site),
	}
	for _, pkg := range prog.Packages {
		f.analyzed[pkg.Types] = true
	}
	f.collectDirectives()
	f.collectAtomicFields()
	f.collectFreshFns()
	f.collectUnits()
	f.computeSummaries()
	f.computeEntryContexts()
	f.recordAccesses()
	f.infer()
	return f
}

// collectDirectives scans function doc comments for lockorder-helper marks
// and struct fields for guardedby annotations.
func (f *fact) collectDirectives() {
	for _, n := range f.prog.Graph.Nodes() {
		if n.Decl == nil || n.Decl.Doc == nil {
			continue
		}
		for _, c := range n.Decl.Doc.List {
			if strings.Contains(c.Text, helperMark) {
				f.helpers[n.Func] = true
				break
			}
		}
	}
	for _, pkg := range f.prog.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					raw := guardDirective(fld)
					if raw == "" {
						continue
					}
					decl := f.resolveGuard(pkg, st, raw)
					for _, name := range fld.Names {
						v, ok := pkg.TypesInfo.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						if decl == nil {
							f.findings = append(f.findings, finding{
								pkg: pkg.Types, pos: name.Pos(),
								msg: fmt.Sprintf("//deltavet:guardedby %s does not resolve to a sync.Mutex/RWMutex field of this struct, a Type.field in this package, or a package-level mutex", raw),
							})
							continue
						}
						f.guards[v] = decl
					}
				}
				return true
			})
		}
	}
}

// guardDirective extracts the lockexpr of a guardedby annotation attached
// to a struct field (doc comment above, or trailing line comment).
func guardDirective(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if idx := strings.Index(c.Text, GuardMark); idx >= 0 {
				rest := strings.Fields(c.Text[idx+len(GuardMark):])
				if len(rest) > 0 {
					return rest[0]
				}
			}
		}
	}
	return ""
}

// resolveGuard resolves a guardedby lockexpr against the annotated struct
// and its package. nil means unresolvable (reported by the caller).
func (f *fact) resolveGuard(pkg *analysis.Package, st *ast.StructType, raw string) *guardDecl {
	if raw == "none" {
		return &guardDecl{none: true, raw: raw}
	}
	mutexField := func(s *ast.StructType, name string) types.Object {
		for _, fld := range s.Fields.List {
			for _, n := range fld.Names {
				if n.Name != name {
					continue
				}
				if v, ok := pkg.TypesInfo.Defs[n].(*types.Var); ok && analysis.IsMutexType(v.Type()) {
					return v
				}
			}
		}
		return nil
	}
	if typeName, fieldName, ok := strings.Cut(raw, "."); ok {
		tn, _ := pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
		if tn == nil {
			return nil
		}
		strct, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		for i := 0; i < strct.NumFields(); i++ {
			v := strct.Field(i)
			if v.Name() == fieldName && analysis.IsMutexType(v.Type()) {
				f.lockName[v] = typeName + "." + v.Name()
				return &guardDecl{lock: v, raw: raw}
			}
		}
		return nil
	}
	if v := mutexField(st, raw); v != nil {
		return &guardDecl{lock: v, raw: raw}
	}
	if v, ok := pkg.Types.Scope().Lookup(raw).(*types.Var); ok && analysis.IsMutexType(v.Type()) {
		f.lockName[v] = v.Name()
		return &guardDecl{lock: v, raw: raw}
	}
	return nil
}

// collectAtomicFields finds fields passed by address to sync/atomic
// functions anywhere in the program — atomicsafe's domain, exempt here.
func (f *fact) collectAtomicFields() {
	for _, pkg := range f.prog.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.CalleeOf(pkg.TypesInfo, call)
				if fn == nil || analysis.PkgPathOf(fn) != "sync/atomic" {
					return true
				}
				for _, arg := range call.Args {
					u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || u.Op != token.AND {
						continue
					}
					sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if s, ok := pkg.TypesInfo.Selections[sel]; ok {
						if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
							f.atomicFields[v] = true
						}
					}
				}
				return true
			})
		}
	}
}

// collectFreshFns finds constructor-shaped functions (new*/New*/make*/Make*)
// that provably return a fresh allocation, via the alias layer's transitive
// return tracking. Calls to them seed the pre-publication escape hatch.
func (f *fact) collectFreshFns() {
	returns := alias.ReturnsTracked(f.prog.Graph, func(info *types.Info, e ast.Expr) string {
		switch x := e.(type) {
		case *ast.CompositeLit:
			return "fresh"
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "new" && isBuiltin(info, id) {
				return "fresh"
			}
		}
		return ""
	})
	f.freshFns = make(map[*types.Func]string)
	for fn, why := range returns {
		name := fn.Name()
		if strings.HasPrefix(name, "new") || strings.HasPrefix(name, "New") ||
			strings.HasPrefix(name, "make") || strings.HasPrefix(name, "Make") {
			f.freshFns[fn] = why
		}
	}
}

// collectUnits builds one unit per source function declaration plus one per
// function literal, and marks the literals invoked directly by a defer
// statement with their enclosing unit.
func (f *fact) collectUnits() {
	litOf := make(map[*ast.FuncLit]*unit)
	for _, n := range f.prog.Graph.Nodes() {
		if n.Decl == nil || n.Decl.Body == nil || n.Src == nil {
			continue
		}
		pkg := f.prog.PackageOf(n.Src.Pkg)
		if pkg == nil {
			continue
		}
		u := &unit{
			fn: n.Func, pkg: pkg, info: pkg.TypesInfo, fset: pkg.Fset,
			body: n.Decl.Body, g: f.prog.CFG(n.Decl),
		}
		f.units = append(f.units, u)
		f.byFn[n.Func] = u
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			if lit, ok := x.(*ast.FuncLit); ok {
				lu := &unit{
					fn: n.Func, pkg: pkg, info: pkg.TypesInfo, fset: pkg.Fset,
					body: lit.Body, g: cfg.New(lit.Body), isLit: true,
				}
				f.units = append(f.units, lu)
				litOf[lit] = lu
			}
			return true
		})
	}
	// `defer func() { ... }()` runs the literal in its encloser's frame at
	// function exit; mark it so dataflow seeds it with the encloser's exit
	// lockset. The scan is shallow per unit (nested literals are scanned as
	// their own units), so each deferred literal binds to its immediate
	// encloser.
	for _, u := range f.units {
		encl := u
		ast.Inspect(u.body, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
					if lu := litOf[lit]; lu != nil {
						lu.deferredIn = encl
					}
				}
			}
			return true
		})
	}
}

// freshTracker lazily builds the unit's alias relation over fresh
// allocations: composite literals, new(T), and constructor-shaped callees.
func (f *fact) freshTracker(u *unit) *alias.Tracker {
	if u.fresh != nil {
		return u.fresh
	}
	u.fresh = alias.Track(u.info, u.body, nil, func(e ast.Expr) *alias.Seed {
		switch x := e.(type) {
		case *ast.CompositeLit:
			return &alias.Seed{Expr: e, Tag: "fresh"}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "new" && isBuiltin(u.info, id) {
				return &alias.Seed{Expr: e, Tag: "fresh"}
			}
			if fn := analysis.CalleeOf(u.info, x); fn != nil && f.freshFns[fn] != "" {
				return &alias.Seed{Expr: e, Tag: "fresh"}
			}
		}
		return nil
	})
	return u.fresh
}

// ---- summary fixpoint ----

// computeSummaries runs the callee-to-caller fixpoint: each pass re-derives
// every lock-relevant function's net acquire/release effect using the
// current summaries at its call sites, until nothing changes. Helpers are
// summarized once with may semantics.
func (f *fact) computeSummaries() {
	for round := 0; round < 20; round++ {
		changed := false
		for _, u := range f.units {
			if u.isLit {
				continue // literals run detached from any caller's frame
			}
			if f.helpers[u.fn] {
				s := f.helperSummary(u)
				if !sameSummary(f.sums[u.fn], s) {
					f.sums[u.fn] = s
					changed = true
				}
				continue
			}
			if !f.lockRelevant(u) {
				continue
			}
			s := f.bodySummary(u)
			if !sameSummary(f.sums[u.fn], s) {
				f.sums[u.fn] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// lockRelevant reports whether the unit can affect a lockset at all: a
// direct mutex operation in the body, or a call to a function whose current
// summary is non-empty.
func (f *fact) lockRelevant(u *unit) bool {
	relevant := false
	ast.Inspect(u.body, func(n ast.Node) bool {
		if relevant {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, _, ok := mutexOp(u.info, call); ok && op != "" {
			relevant = true
			return false
		}
		for _, t := range f.prog.Graph.CalleesAt(call) {
			if !f.sums[t.Func].empty() {
				relevant = true
				return false
			}
		}
		return true
	})
	return relevant
}

// helperSummary summarizes a lockorder-helper with may semantics: every
// lock op in the body (and in summarized callees) counts, loops included.
func (f *fact) helperSummary(u *unit) *summary {
	s := &summary{acq: map[types.Object]lockMode{}, acqHow: map[types.Object]string{}, rel: map[types.Object]bool{}}
	ast.Inspect(u.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if op, obj, ok := mutexOp(u.info, n); ok && obj != nil {
				f.nameLock(u, n, obj)
				switch op {
				case "Lock":
					s.acq[obj] = modeW
				case "RLock":
					if s.acq[obj] < modeR {
						s.acq[obj] = modeR
					}
				case "Unlock", "RUnlock":
					s.rel[obj] = true
				}
				return true
			}
			for _, t := range f.prog.Graph.CalleesAt(n) {
				cs := f.sums[t.Func]
				if cs.empty() {
					continue
				}
				for obj, m := range cs.acq {
					if s.acq[obj] < m {
						s.acq[obj] = m
						s.acqHow[obj] = chainVia(t.Func.Name(), cs.acqHow[obj])
					}
				}
				for obj := range cs.rel {
					s.rel[obj] = true
				}
			}
		}
		return true
	})
	return s
}

// bodySummary derives a regular function's summary from its dataflow: acq
// is the exit lockset minus deferred releases, rel the locks released
// without a prior acquire in this body (plus net deferred releases).
func (f *fact) bodySummary(u *unit) *summary {
	w := f.dataflow(u, nil, nil)
	s := &summary{acq: map[types.Object]lockMode{}, acqHow: map[types.Object]string{}, rel: map[types.Object]bool{}}
	exit := w.exitState()
	for obj, m := range exit.held {
		if w.deferRel[obj] {
			continue
		}
		s.acq[obj] = m
		s.acqHow[obj] = exit.how[obj]
	}
	for obj := range w.netRel {
		s.rel[obj] = true
	}
	for obj := range w.deferRel {
		if _, acquiredHere := exit.held[obj]; !acquiredHere {
			s.rel[obj] = true
		}
	}
	return s
}

func sameSummary(a, b *summary) bool {
	if a.empty() != b.empty() {
		return false
	}
	if a == nil || b == nil {
		return a.empty() && b.empty()
	}
	if len(a.acq) != len(b.acq) || len(a.rel) != len(b.rel) {
		return false
	}
	for k, v := range a.acq {
		if b.acq[k] != v {
			return false
		}
	}
	for k := range a.rel {
		if !b.rel[k] {
			return false
		}
	}
	return true
}

// ---- entry contexts ----

// computeEntryContexts derives, for every unexported function, the locks
// held at ALL of its static call sites (the must-intersection): an interior
// helper called only under a lock analyzes as if it held that lock, with a
// "held at every call site" witness. Exported functions are API — callers
// outside the analyzed program (tests, future code) owe them nothing, so
// their entry is empty. The fixpoint grows from empty entries, which
// converges from below: cycles err toward fewer held locks (false
// positives, never missed races).
func (f *fact) computeEntryContexts() {
	// Total static in-edges per function: a callee is only as locked as its
	// least-locked call site, and a call site we never analyze (none exist:
	// every call site lives in some unit's body) or one inside a go
	// statement contributes the empty set.
	inEdges := make(map[*types.Func]int)
	for _, n := range f.prog.Graph.Nodes() {
		for _, e := range n.Out {
			inEdges[e.Callee.Func]++
		}
	}
	for round := 0; round < 6; round++ {
		gathered := make(map[*types.Func][]map[types.Object]lockMode)
		count := make(map[*types.Func]int)
		for _, u := range f.units {
			w := f.dataflow(u, nil, nil)
			w.replay(func(callee *types.Func, held map[types.Object]lockMode, _ *lockState, _ ast.Node) {
				count[callee]++
				gathered[callee] = append(gathered[callee], held)
			}, nil)
		}
		changed := false
		for _, n := range f.prog.Graph.Nodes() {
			fn := n.Func
			if fn.Exported() || f.helpers[fn] || f.byFn[fn] == nil {
				continue
			}
			sets := gathered[fn]
			if len(sets) == 0 || count[fn] != inEdges[fn] {
				continue // some call site is unaccounted for: stay empty
			}
			inter := make(map[types.Object]lockMode, len(sets[0]))
			for k, v := range sets[0] {
				inter[k] = v
			}
			for _, s := range sets[1:] {
				for k, v := range inter {
					sv, ok := s[k]
					if !ok {
						delete(inter, k)
					} else if sv < v {
						inter[k] = sv
					}
				}
			}
			if len(inter) == 0 {
				continue
			}
			if !sameLockMap(f.entry[fn], inter) {
				f.entry[fn] = inter
				f.entryHow[fn] = "held at every call site of " + fn.Name()
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

func sameLockMap(a, b map[types.Object]lockMode) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// ---- access recording and inference ----

func (f *fact) recordAccesses() {
	for _, u := range f.units {
		w := f.dataflow(u, nil, nil)
		w.replay(nil, func(v *types.Var, sel *ast.SelectorExpr, write, direct bool, st *lockState) {
			f.recordSite(u, w, v, sel, write, direct, st)
		})
	}
}

func (f *fact) recordSite(u *unit, w *walker, v *types.Var, sel *ast.SelectorExpr, write, direct bool, st *lockState) {
	if _, seen := f.sites[v]; !seen {
		f.fields = append(f.fields, v)
	}
	if f.fieldName[v] == "" {
		owner, _ := analysis.NamedType(u.info.Types[sel.X].Type)
		if owner == "" {
			owner = "?"
		}
		f.fieldName[v] = owner + "." + v.Name()
	}
	s := &site{
		fn: u.fn, pkg: u.pkg.Types, pos: sel.Pos(), p: u.fset.Position(sel.Pos()), write: write,
		held: make(map[types.Object]lockMode, len(st.held)),
		how:  make(map[types.Object]string, len(st.held)),
	}
	for k, m := range st.held {
		s.held[k] = m
		s.how[k] = st.how[k]
	}
	if write && direct && valueCopyStore(u.info, sel) {
		s.exempt = "store to a by-value local copy"
	} else if !st.goSeen {
		base := innermostBase(sel)
		if len(f.freshTracker(u).ExprSeeds(base)) > 0 {
			s.exempt = "pre-publication access to a fresh value"
		}
	}
	f.sites[v] = append(f.sites[v], s)
}

// infer votes per field, picks the dominating lock, and reports unguarded
// (or under-locked) writes.
func (f *fact) infer() {
	sort.Slice(f.fields, func(i, j int) bool { return f.fields[i].Pos() < f.fields[j].Pos() })
	for _, v := range f.fields {
		decl := f.guards[v]
		if decl != nil && decl.none {
			continue
		}
		sites := f.sites[v]
		var voters []*site
		for _, s := range sites {
			if s.exempt == "" {
				voters = append(voters, s)
			}
		}
		var guard types.Object
		var evidence string
		lockLabel := func(obj types.Object) string {
			if n := f.lockName[obj]; n != "" {
				return n
			}
			return obj.Name()
		}
		if decl != nil {
			guard = decl.lock
			evidence = fmt.Sprintf("declared by //deltavet:guardedby %s", decl.raw)
		} else {
			tally := make(map[types.Object]int)
			for _, s := range voters {
				for obj := range s.held {
					tally[obj]++
				}
			}
			var locks []types.Object
			for obj := range tally {
				locks = append(locks, obj)
			}
			sort.Slice(locks, func(i, j int) bool {
				if tally[locks[i]] != tally[locks[j]] {
					return tally[locks[i]] > tally[locks[j]]
				}
				return f.lockName[locks[i]] < f.lockName[locks[j]]
			})
			if len(locks) == 0 {
				continue
			}
			best := locks[0]
			votes := tally[best]
			if votes < 2 || 2*votes <= len(voters) {
				continue // no dominating lock: unguarded or confined by design
			}
			guard = best
			evidence = fmt.Sprintf("inferred from %d/%d guarded accesses (e.g. %s)",
				votes, len(voters), f.exemplars(voters, best))
		}
		for _, s := range voters {
			if !s.write {
				continue
			}
			switch s.held[guard] {
			case modeW:
				// guarded
			case modeR:
				f.findings = append(f.findings, finding{
					pkg: s.pkg, pos: s.pos,
					msg: fmt.Sprintf("write to %s while holding only %s.RLock — writes need the write lock; guard %s", f.fieldName[v], lockLabel(guard), evidence),
				})
			default:
				f.findings = append(f.findings, finding{
					pkg: s.pkg, pos: s.pos,
					msg: fmt.Sprintf("write to %s without holding %s — guard %s; an unlocked write races with the guarded accesses", f.fieldName[v], lockLabel(guard), evidence),
				})
			}
		}
	}
}

// exemplars renders up to two guarded sites, with the witness chain when
// the guard arrived via a helper or a caller's context.
func (f *fact) exemplars(voters []*site, guard types.Object) string {
	var out []string
	seen := map[string]bool{}
	for _, s := range voters {
		if _, ok := s.held[guard]; !ok {
			continue
		}
		at := fmt.Sprintf("%s:%d", shortFile(s.p.Filename), s.p.Line)
		if seen[at] {
			continue
		}
		seen[at] = true
		e := at
		if how := s.how[guard]; how != "" {
			e += " (" + how + ")"
		}
		out = append(out, e)
		if len(out) == 2 {
			break
		}
	}
	return strings.Join(out, ", ")
}

func shortFile(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// ---- the per-unit dataflow engine ----

// walker runs the lockset transfer over one unit's CFG. After run(), in[b]
// holds the must-lockset entering each block; replay() re-executes the
// transfer per block to visit call sites and field accesses with the exact
// state at each point.
type walker struct {
	f    *fact
	u    *unit
	in   map[*cfg.Block]*lockState
	out  map[*cfg.Block]*lockState
	post []*cfg.Block
	// deferRel: locks released by a deferred call somewhere in the body
	// (may); netRel: locks released without a prior acquire here (may).
	deferRel map[types.Object]bool
	netRel   map[types.Object]bool

	onCall   func(callee *types.Func, held map[types.Object]lockMode, st *lockState, site ast.Node)
	onAccess func(v *types.Var, sel *ast.SelectorExpr, write, direct bool, st *lockState)
}

// dataflow runs the fixpoint for u and returns the walker for replay.
func (f *fact) dataflow(u *unit, onCall func(*types.Func, map[types.Object]lockMode, *lockState, ast.Node), onAccess func(*types.Var, *ast.SelectorExpr, bool, bool, *lockState)) *walker {
	w := &walker{
		f: f, u: u,
		in: make(map[*cfg.Block]*lockState), out: make(map[*cfg.Block]*lockState),
		deferRel: make(map[types.Object]bool), netRel: make(map[types.Object]bool),
	}
	w.post = u.g.Postorder()
	reach := make(map[*cfg.Block]bool, len(w.post))
	for _, b := range w.post {
		reach[b] = true
	}
	entry := newLockState()
	switch {
	case !u.isLit:
		for obj, m := range f.entry[u.fn] {
			entry.acquire(obj, m, f.entryHow[u.fn])
		}
	case u.deferredIn != nil:
		// A deferred literal runs in its encloser's frame at exit: seed it
		// with the encloser's exit lockset. (LIFO works in our favor: the
		// usual `defer mu.Unlock()` registered before the literal runs after
		// it, so a lock held to the end of the body is held when the literal
		// runs. A literal registered before an explicit early Unlock is the
		// over-approximated corner, erring toward a missed race, not noise.)
		entry = f.dataflow(u.deferredIn, nil, nil).exitState().clone()
	default:
		// A detached literal runs at an unknown time, possibly on another
		// goroutine: no inherited locks. goSeen starts false all the same —
		// the freshness tracker seeds only allocations in this body, and a
		// value allocated here is unreachable elsewhere until published,
		// whenever the literal runs.
	}
	for changed := true; changed; {
		changed = false
		for i := len(w.post) - 1; i >= 0; i-- {
			b := w.post[i]
			var st *lockState
			if b == u.g.Entry {
				st = entry.clone()
			} else {
				for _, p := range b.Preds {
					if !reach[p] || w.out[p] == nil {
						continue
					}
					if st == nil {
						st = w.out[p].clone()
					} else {
						st.meet(w.out[p])
					}
				}
				if st == nil {
					st = newLockState()
				}
			}
			o := st.clone()
			for _, n := range b.Nodes {
				w.applyNode(n, o)
			}
			if w.in[b] == nil || !w.in[b].equal(st) || w.out[b] == nil || !w.out[b].equal(o) {
				w.in[b], w.out[b] = st, o
				changed = true
			}
		}
	}
	w.onCall, w.onAccess = onCall, onAccess
	return w
}

// exitState is the must-lockset at function exit.
func (w *walker) exitState() *lockState {
	if s := w.in[w.u.g.Exit]; s != nil {
		return s
	}
	return newLockState()
}

// replay re-runs the transfer with the collection callbacks installed.
func (w *walker) replay(onCall func(*types.Func, map[types.Object]lockMode, *lockState, ast.Node), onAccess func(*types.Var, *ast.SelectorExpr, bool, bool, *lockState)) {
	w.onCall, w.onAccess = onCall, onAccess
	for _, b := range w.post {
		if w.in[b] == nil {
			continue
		}
		st := w.in[b].clone()
		for _, n := range b.Nodes {
			w.applyNode(n, st)
		}
	}
	w.onCall, w.onAccess = nil, nil
}

// applyNode is the transfer function for one CFG node: it visits the
// node's subtree in source order, recording field accesses with the running
// state and applying lock effects as they are encountered.
func (w *walker) applyNode(n ast.Node, st *lockState) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.FuncLit:
		return // a separate unit
	case *ast.GoStmt:
		// Argument expressions evaluate now, under the current locks; the
		// callee runs later, under none of them.
		if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok {
			w.applyNode(sel.X, st)
		}
		for _, a := range n.Call.Args {
			w.applyNode(a, st)
		}
		if w.onCall != nil {
			for _, t := range w.f.prog.Graph.CalleesAt(n.Call) {
				w.onCall(t.Func, map[types.Object]lockMode{}, st, n.Call)
			}
		}
		st.goSeen = true
		return
	case *ast.DeferStmt:
		w.applyDefer(n, st)
		return
	case *ast.CallExpr:
		w.applyCall(n, st)
		return
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			w.applyNode(rhs, st)
		}
		for _, lhs := range n.Lhs {
			w.applyLvalue(lhs, st, true)
		}
		return
	case *ast.IncDecStmt:
		w.applyLvalue(n.X, st, true)
		return
	case *ast.SelectorExpr:
		w.maybeAccess(n, false, false, st)
		w.applyNode(n.X, st)
		return
	case *ast.Ident, *ast.BasicLit:
		return
	}
	// Generic: visit direct children in source order.
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			w.applyNode(c, st)
		}
		return false
	})
}

// applyLvalue handles an assignment target: the outermost field selector in
// the lvalue chain is the write; everything beneath it is reads. direct
// distinguishes a store into the field's own slot (`x.f = v`) from a
// mutation through it (`x.f[k] = v`, `*x.f = v`) — only a direct store can
// use the by-value-copy exemption, because an indexed or dereferenced write
// reaches storage the copy shares with the original.
func (w *walker) applyLvalue(e ast.Expr, st *lockState, direct bool) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		w.maybeAccess(e, true, direct, st)
		w.applyNode(e.X, st)
	case *ast.IndexExpr:
		w.applyNode(e.Index, st)
		w.applyLvalue(e.X, st, false)
	case *ast.StarExpr:
		w.applyLvalue(e.X, st, false)
	case *ast.Ident:
		// Rebinding a local is not a mutation of shared state.
	default:
		w.applyNode(e, st)
	}
}

func (w *walker) applyDefer(n *ast.DeferStmt, st *lockState) {
	// Arguments (and the receiver expression) evaluate at the defer
	// statement; the call itself runs at exit.
	if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok {
		w.applyNode(sel.X, st)
	}
	for _, a := range n.Call.Args {
		w.applyNode(a, st)
	}
	if op, obj, ok := mutexOp(w.u.info, n.Call); ok && obj != nil {
		if op == "Unlock" || op == "RUnlock" {
			w.deferRel[obj] = true
		}
		return // a deferred Lock is bizarre; ignore it either way
	}
	for _, t := range w.f.prog.Graph.CalleesAt(n.Call) {
		if w.onCall != nil {
			w.onCall(t.Func, snapshotHeld(st), st, n.Call)
		}
		if cs := w.f.sums[t.Func]; !cs.empty() {
			for obj := range cs.rel {
				w.deferRel[obj] = true
			}
		}
	}
}

func (w *walker) applyCall(call *ast.CallExpr, st *lockState) {
	// Receiver/argument subexpressions evaluate first.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if op, obj, isMutex := mutexOp(w.u.info, call); isMutex {
			w.applyNode(sel.X, st)
			if obj == nil {
				return
			}
			w.f.nameLock(w.u, call, obj)
			switch op {
			case "Lock":
				st.acquire(obj, modeW, "")
			case "RLock":
				st.acquire(obj, modeR, "")
			case "Unlock", "RUnlock":
				if !st.release(obj) {
					w.netRel[obj] = true
				}
			}
			return
		}
		w.applyNode(sel.X, st)
	} else {
		w.applyNode(call.Fun, st)
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && isBuiltin(w.u.info, id) && len(call.Args) > 0 {
		// delete(x.f, k) / clear(x.f) mutate the field's map or slice — a
		// mutation through the field, never a direct store into its slot.
		w.applyLvalue(call.Args[0], st, false)
		for _, a := range call.Args[1:] {
			w.applyNode(a, st)
		}
		return
	}
	for _, a := range call.Args {
		w.applyNode(a, st)
	}
	// Callee effects: the callee runs under the current lockset; apply its
	// net releases, then its net acquires. A CHA fan-out applies the
	// intersection of acquires (must) and the union of releases (may).
	targets := w.f.prog.Graph.CalleesAt(call)
	if w.onCall != nil {
		for _, t := range targets {
			w.onCall(t.Func, snapshotHeld(st), st, call)
		}
	}
	var acq map[types.Object]lockMode
	var how map[types.Object]string
	first := true
	for _, t := range targets {
		cs := w.f.sums[t.Func]
		if cs.empty() {
			acq, first = nil, false
			continue
		}
		for obj := range cs.rel {
			if !st.release(obj) {
				// The callee releases a lock this body never acquired: the
				// release propagates to our own caller.
				w.netRel[obj] = true
			}
		}
		if first {
			acq = make(map[types.Object]lockMode, len(cs.acq))
			how = make(map[types.Object]string, len(cs.acq))
			for obj, m := range cs.acq {
				acq[obj] = m
				how[obj] = chainVia(t.Func.Name(), cs.acqHow[obj])
			}
			first = false
		} else {
			for obj, m := range acq {
				cm, ok := cs.acq[obj]
				if !ok {
					delete(acq, obj)
					delete(how, obj)
				} else if cm < m {
					acq[obj] = cm
				}
			}
		}
	}
	for obj, m := range acq {
		st.acquire(obj, m, how[obj])
	}
}

// maybeAccess records a read or write of a tracked struct field.
func (w *walker) maybeAccess(sel *ast.SelectorExpr, write, direct bool, st *lockState) {
	if w.onAccess == nil {
		return
	}
	s, ok := w.u.info.Selections[sel]
	if !ok {
		return
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !w.f.trackedField(v) {
		return
	}
	w.onAccess(v, sel, write, direct, st)
}

// trackedField: a field of a struct declared in an analyzed package, whose
// synchronization is not already somebody else's domain.
func (f *fact) trackedField(v *types.Var) bool {
	if v == nil || !v.IsField() || v.Pkg() == nil || !f.analyzed[v.Pkg()] {
		return false
	}
	if f.atomicFields[v] {
		return false // atomicsafe's domain
	}
	t := v.Type()
	if _, ok := t.Underlying().(*types.Chan); ok {
		return false // channels synchronize themselves
	}
	if _, pkg := analysis.NamedType(t); pkg == "sync" || pkg == "sync/atomic" {
		return false // mutexes, waitgroups, atomic boxes
	}
	return true
}

func snapshotHeld(st *lockState) map[types.Object]lockMode {
	out := make(map[types.Object]lockMode, len(st.held))
	for k, v := range st.held {
		out[k] = v
	}
	return out
}

func chainVia(callee, calleeHow string) string {
	if calleeHow == "" {
		return "via " + callee
	}
	return "via " + callee + " -> " + strings.TrimPrefix(calleeHow, "via ")
}

// nameLock records a human-readable identity for a lock object the first
// time it is seen: "Owner.field" for mutex fields, the variable name for
// package-level mutexes.
func (f *fact) nameLock(u *unit, call *ast.CallExpr, obj types.Object) {
	if f.lockName[obj] != "" {
		return
	}
	name := obj.Name()
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if muSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			if owner, _ := analysis.NamedType(u.info.Types[muSel.X].Type); owner != "" {
				name = owner + "." + obj.Name()
			}
		}
	}
	f.lockName[obj] = name
}

// mutexOp classifies call: is it (R)Lock/(R)Unlock on a sync.Mutex or
// sync.RWMutex receiver? Returns the op name and the lock's identity — the
// mutex field var, or the package-level/local mutex var. ok is true for any
// mutex method call even when the identity is unresolvable (obj nil), so
// callers do not double-process the call.
func mutexOp(info *types.Info, call *ast.CallExpr) (op string, obj types.Object, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", nil, false
	}
	tv, hasType := info.Types[sel.X]
	if !hasType || !analysis.IsMutexType(tv.Type) {
		return "", nil, false
	}
	op = sel.Sel.Name
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if s, isField := info.Selections[x]; isField {
			if v, isVar := s.Obj().(*types.Var); isVar && v.IsField() {
				return op, v, true
			}
		}
		// Package-qualified mutex: pkg.Mu.Lock().
		if v, isVar := info.Uses[x.Sel].(*types.Var); isVar {
			return op, v, true
		}
	case *ast.Ident:
		if v, isVar := info.Uses[x].(*types.Var); isVar {
			return op, v, true
		}
	}
	return op, nil, true
}

// isBuiltin reports whether id resolves to a predeclared builtin function
// (and not a user-defined shadow of the same name).
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// valueCopyStore reports whether sel stores into a by-value struct held in
// a local variable or parameter: `cfg.BlockSize = n` on a `Config` value
// mutates the local copy, which nothing else can alias. Every link of the
// selector chain must be a non-pointer struct and the root a non-field local
// — one pointer link, or a package-level root, and the store reaches shared
// storage again.
func valueCopyStore(info *types.Info, sel *ast.SelectorExpr) bool {
	e := ast.Unparen(sel.X)
	for {
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		if _, isStruct := tv.Type.Underlying().(*types.Struct); !isStruct {
			return false
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = ast.Unparen(x.X)
		case *ast.Ident:
			v, ok := info.Uses[x].(*types.Var)
			if !ok {
				v, ok = info.Defs[x].(*types.Var)
			}
			return ok && !v.IsField() && v.Pkg() != nil && v.Parent() != v.Pkg().Scope()
		default:
			return false
		}
	}
}

// innermostBase unwraps a selector/index/deref chain to its root
// expression (the receiver the access runs through).
func innermostBase(e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}
