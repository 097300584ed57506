package script

import (
	"sort"
	"strconv"
)

// The pipetype inference pass (see shapes.go for the lattice and report
// types). Produced shapes come from a flow-insensitive per-function local
// environment iterated to fixpoint, with widening for module globals that
// escape; consumed shapes come from a demand walk of event_received with
// expected-kind contexts passed top-down and alias tracking for the
// message parameter.

type shapeCtx struct {
	sigs    map[string]Signature
	funcs   map[string]funcDef
	globals map[string]*Shape
	extra   map[string]bool

	retShape map[string]*Shape
	retState map[string]int // 0 unseen, 1 in progress, 2 done
	envMemo  map[*funcLit]envResult

	consumeMemo  map[string]*consumeFrag
	consumeState map[string]bool
}

type envResult struct {
	env    map[string]*Shape
	locals map[string]bool
}

// shapePass runs pipetype over a parsed module: module globals, then
// per-scope analysis of the load scope and each top-level function. It
// reports PV018 at emit sites whose payload degrades to top or an open
// object.
func shapePass(prog *program, sigs map[string]Signature, globals []string) (ShapeReport, []Diagnostic) {
	ctx := &shapeCtx{
		sigs:         sigs,
		funcs:        prog.funcs,
		globals:      make(map[string]*Shape),
		extra:        make(map[string]bool),
		retShape:     make(map[string]*Shape),
		retState:     make(map[string]int),
		envMemo:      make(map[*funcLit]envResult),
		consumeMemo:  make(map[string]*consumeFrag),
		consumeState: make(map[string]bool),
	}
	for _, g := range globals {
		ctx.extra[g] = true
	}

	// Module globals: a global keeps its declaration shape only when the
	// module never re-assigns it, never passes it to a call, and never
	// writes through it — otherwise it widens to top.
	widened := make(map[string]bool)
	for _, s := range prog.stmts {
		scanWidens(s, widened)
	}
	for _, s := range prog.stmts {
		st, ok := s.(*declStmt)
		if !ok {
			continue
		}
		if _, isFunc := st.init.(*funcLit); isFunc {
			continue
		}
		switch {
		case widened[st.name]:
			ctx.globals[st.name] = topShape()
		case st.init == nil:
			ctx.globals[st.name] = kindShape(KindNull)
		default:
			ctx.globals[st.name] = ctx.evalShape(st.init, nil, nil)
		}
	}

	// Emit collection: the load scope (top-level statements) plus every
	// top-level function body, each under its own stabilized environment.
	var sites []EmitSite
	var diags []Diagnostic
	warned := make(map[Position]bool)
	col := &emitCollector{ctx: ctx, sites: &sites, diags: &diags, warned: warned}
	load := col.scope(nil, nil)
	for _, s := range prog.stmts {
		switch st := s.(type) {
		case *funcDecl:
			// Walked as its own scope below.
		case *declStmt:
			if _, isFunc := st.init.(*funcLit); !isFunc {
				load.walk(s)
			}
		default:
			load.walk(s)
		}
	}
	for _, d := range prog.defs {
		env, locals := ctx.fixpointEnv(d.fn)
		col.scope(env, locals).walk(d.fn.body)
	}
	sort.SliceStable(sites, func(i, j int) bool {
		if sites[i].Pos.Line != sites[j].Pos.Line {
			return sites[i].Pos.Line < sites[j].Pos.Line
		}
		return sites[i].Pos.Col < sites[j].Pos.Col
	})

	rep := ShapeReport{
		Emits:     make(map[string]*Shape),
		EmitSites: sites,
	}
	for _, s := range sites {
		if s.Target == "" {
			rep.DynamicEmit = rep.DynamicEmit.Join(s.Payload)
			continue
		}
		rep.Emits[s.Target] = rep.Emits[s.Target].Join(s.Payload)
	}

	if d, ok := ctx.funcs["event_received"]; ok {
		rep.Consumed.HasHandler = true
		rep.Consumed.Fields = make(map[string]FieldUse)
		if len(d.fn.params) > 0 {
			frag := ctx.consumeFunc(d.fn, 0, "")
			rep.Consumed.Dynamic = frag.dynamic
			rep.Consumed.Fields = frag.fields
		}
	}
	return rep, diags
}

// scanWidens records names that are assignment targets, call arguments, or
// the root of a member/index write anywhere in the program (including
// nested function bodies).
func scanWidens(s stmt, into map[string]bool) {
	inspect(s, func(n node) bool {
		switch ex := n.(type) {
		case *assignExpr:
			widenTarget(ex.target, into)
		case *updateExpr:
			widenTarget(ex.target, into)
		case *callExpr:
			for _, a := range ex.args {
				if id, ok := a.(*identExpr); ok {
					into[id.name] = true
				}
			}
		}
		return true
	})
}

func widenTarget(t expr, into map[string]bool) {
	if id, ok := t.(*identExpr); ok {
		into[id.name] = true
		return
	}
	if root, ok := rootIdentName(t); ok {
		into[root] = true
	}
}

// rootIdentName chases member/index chains to their base identifier.
func rootIdentName(e expr) (string, bool) {
	for {
		switch ex := e.(type) {
		case *identExpr:
			return ex.name, true
		case *memberExpr:
			e = ex.obj
		case *indexExpr:
			e = ex.obj
		default:
			return "", false
		}
	}
}

// ---- produced side: local environments ----

// fixpointEnv computes the stabilized flow-insensitive local environment of
// a function: every local maps to the join of every shape assigned to it
// anywhere in the body (declarations with no initializer contribute null;
// parameters are top). Results are memoized per function literal.
func (c *shapeCtx) fixpointEnv(fl *funcLit) (map[string]*Shape, map[string]bool) {
	if r, ok := c.envMemo[fl]; ok {
		return r.env, r.locals
	}
	locals := make(map[string]bool)
	collectDeclaredNames(fl.body, locals)
	env := make(map[string]*Shape)
	for _, pn := range fl.params {
		locals[pn] = true
		env[pn] = topShape()
	}
	p := &envPass{ctx: c, locals: locals, env: env}
	stable := false
	for i := 0; i < maxEnvPasses && !stable; i++ {
		p.changed = false
		for _, s := range fl.body.stmts {
			p.stmt(s)
		}
		stable = !p.changed
	}
	if !stable {
		// Did not converge under the pass cap: widen everything so the
		// result stays an over-approximation.
		for n := range env {
			env[n] = topShape()
		}
	}
	c.envMemo[fl] = envResult{env: env, locals: locals}
	return env, locals
}

type envPass struct {
	ctx     *shapeCtx
	locals  map[string]bool
	env     map[string]*Shape
	changed bool
}

func (p *envPass) set(name string, s *Shape) {
	if !p.locals[name] {
		return
	}
	old := p.env[name]
	nw := old.Join(s)
	if old.String() != nw.String() {
		p.env[name] = nw
		p.changed = true
	}
}

func (p *envPass) stmt(s stmt) {
	switch st := s.(type) {
	case nil:
	case *exprStmt:
		p.expr(st.x)
	case *declStmt:
		if st.init == nil {
			p.set(st.name, kindShape(KindNull))
			return
		}
		if _, isFunc := st.init.(*funcLit); isFunc {
			p.set(st.name, kindShape(KindFunction))
		} else {
			p.set(st.name, p.ctx.evalShape(st.init, p.env, p.locals))
		}
		p.expr(st.init)
	case *blockStmt:
		for _, inner := range st.stmts {
			p.stmt(inner)
		}
	case *ifStmt:
		p.expr(st.cond)
		p.stmt(st.then)
		p.stmt(st.elsE)
	case *whileStmt:
		p.expr(st.cond)
		p.stmt(st.body)
	case *forStmt:
		p.stmt(st.init)
		p.expr(st.cond)
		p.expr(st.post)
		p.stmt(st.body)
	case *forOfStmt:
		p.set(st.varName, elemShape(p.ctx.evalShape(st.iter, p.env, p.locals)))
		p.expr(st.iter)
		p.stmt(st.body)
	case *returnStmt:
		p.expr(st.value)
	case *throwStmt:
		p.expr(st.value)
	case *tryStmt:
		p.stmt(st.body)
		if st.catch != nil {
			if st.catchVar != "" {
				p.set(st.catchVar, topShape())
			}
			p.stmt(st.catch)
		}
		if st.finally != nil {
			p.stmt(st.finally)
		}
	case *switchStmt:
		p.expr(st.subject)
		for _, cs := range st.cases {
			p.expr(cs.value)
			for _, inner := range cs.body {
				p.stmt(inner)
			}
		}
		for _, inner := range st.defaultBody {
			p.stmt(inner)
		}
	case *funcDecl:
		// A closure may write the enclosing function's locals.
		p.stmt(st.fn.body)
	}
}

func (p *envPass) expr(e expr) {
	inspect(e, func(n node) bool {
		switch ex := n.(type) {
		case *assignExpr:
			var val *Shape
			switch ex.op {
			case "=":
				val = p.ctx.evalShape(ex.value, p.env, p.locals)
			case "+=":
				val = kindShape(KindNumber | KindString)
			default:
				val = kindShape(KindNumber)
			}
			p.assignTarget(ex.target, val)
		case *updateExpr:
			p.assignTarget(ex.target, kindShape(KindNumber))
		}
		return true
	})
}

func (p *envPass) assignTarget(t expr, val *Shape) {
	switch tx := t.(type) {
	case *identExpr:
		p.set(tx.name, val)
	case *memberExpr:
		if id, ok := tx.obj.(*identExpr); ok {
			p.set(id.name, &Shape{Kinds: KindObject, Fields: map[string]*Shape{tx.name: val}})
			return
		}
		// A write through a nested path makes the root's field set
		// inexact.
		if root, ok := rootIdentName(tx.obj); ok {
			p.set(root, &Shape{Kinds: KindObject | KindArray, Open: true, Elem: topShape()})
		}
	case *indexExpr:
		if root, ok := rootIdentName(tx.obj); ok {
			p.set(root, &Shape{Kinds: KindObject | KindArray, Open: true, Elem: topShape()})
		}
	}
}

// elemShape is the shape a for-of loop variable takes when iterating s.
func elemShape(s *Shape) *Shape {
	if s == nil || s.Top {
		return topShape()
	}
	var out *Shape
	if s.Kinds&KindArray != 0 {
		if s.Elem != nil {
			out = out.Join(s.Elem)
		} else {
			out = out.Join(kindShape(KindNull))
		}
	}
	if s.Kinds&KindString != 0 {
		out = out.Join(kindShape(KindString))
	}
	if s.Kinds&KindObject != 0 {
		// Iterating an object yields its keys.
		out = out.Join(kindShape(KindString))
	}
	if out == nil {
		return topShape()
	}
	return out
}

// ---- produced side: expression shapes ----

func (c *shapeCtx) evalShape(e expr, env map[string]*Shape, locals map[string]bool) *Shape {
	return c.evalDepth(e, env, locals, 0)
}

// evalDepth computes an over-approximate shape for an expression. depth is
// structural (incremented at object/array nesting only).
func (c *shapeCtx) evalDepth(e expr, env map[string]*Shape, locals map[string]bool, depth int) *Shape {
	switch ex := e.(type) {
	case nil:
		return kindShape(KindNull)
	case *numberLit:
		return kindShape(KindNumber)
	case *stringLit:
		return kindShape(KindString)
	case *boolLit:
		return kindShape(KindBool)
	case *nullLit:
		return kindShape(KindNull)
	case *identExpr:
		if locals != nil && locals[ex.name] {
			if s := env[ex.name]; s != nil {
				return s
			}
			return kindShape(KindNull)
		}
		if s, ok := c.globals[ex.name]; ok {
			return s
		}
		if c.extra[ex.name] {
			return topShape()
		}
		if _, ok := c.funcs[ex.name]; ok {
			return kindShape(KindFunction)
		}
		if _, ok := c.sigs[ex.name]; ok {
			return kindShape(KindFunction)
		}
		return topShape()
	case *objectLit:
		if depth >= maxShapeDepth {
			return topShape()
		}
		s := &Shape{Kinds: KindObject, Fields: make(map[string]*Shape, len(ex.fields))}
		for _, f := range ex.fields {
			s.Fields[f.key] = s.Fields[f.key].Join(c.evalDepth(f.value, env, locals, depth+1))
		}
		return s
	case *arrayLit:
		if depth >= maxShapeDepth {
			return topShape()
		}
		s := &Shape{Kinds: KindArray}
		for _, el := range ex.elems {
			s.Elem = s.Elem.Join(c.evalDepth(el, env, locals, depth+1))
		}
		return s
	case *funcLit:
		return kindShape(KindFunction)
	case *unaryExpr:
		switch ex.op {
		case "!":
			return kindShape(KindBool)
		case "-", "+":
			return kindShape(KindNumber)
		}
		return topShape()
	case *binaryExpr:
		switch ex.op {
		case "+":
			return kindShape(KindNumber | KindString)
		case "-", "*", "/", "%":
			return kindShape(KindNumber)
		case "<", "<=", ">", ">=", "==", "!=", "===", "!==":
			return kindShape(KindBool)
		}
		return topShape()
	case *logicalExpr:
		return c.evalDepth(ex.x, env, locals, depth).Join(c.evalDepth(ex.y, env, locals, depth))
	case *condExpr:
		return c.evalDepth(ex.then, env, locals, depth).Join(c.evalDepth(ex.elsE, env, locals, depth))
	case *assignExpr:
		switch ex.op {
		case "=":
			return c.evalDepth(ex.value, env, locals, depth)
		case "+=":
			return kindShape(KindNumber | KindString)
		}
		return kindShape(KindNumber)
	case *updateExpr:
		return kindShape(KindNumber)
	case *callExpr:
		return c.callShape(ex, env, locals)
	case *memberExpr:
		return fieldShape(c.evalDepth(ex.obj, env, locals, depth), ex.name)
	case *indexExpr:
		return indexShape(c.evalDepth(ex.obj, env, locals, depth))
	}
	return topShape()
}

func (c *shapeCtx) callShape(ex *callExpr, env map[string]*Shape, locals map[string]bool) *Shape {
	id, ok := ex.callee.(*identExpr)
	if !ok {
		return topShape()
	}
	if locals != nil && locals[id.name] {
		return topShape()
	}
	if _, isGlobal := c.globals[id.name]; isGlobal {
		return topShape()
	}
	if d, found := c.funcs[id.name]; found {
		return c.returnShape(id.name, d.fn)
	}
	switch id.name {
	case "call_service":
		return topShape()
	case "call_module":
		return kindShape(KindNull)
	}
	if _, found := c.sigs[id.name]; found {
		if k, known := builtinReturnKinds[id.name]; known {
			return kindShape(k)
		}
		return topShape()
	}
	return topShape()
}

// fieldShape reads a field off an object shape. A present field may still
// be absent at runtime (fields are a may-union), so null joins in.
func fieldShape(obj *Shape, name string) *Shape {
	if obj == nil || obj.Top {
		return topShape()
	}
	if obj.Kinds&KindObject == 0 {
		return topShape()
	}
	if f, ok := obj.Fields[name]; ok {
		return f.Join(kindShape(KindNull))
	}
	if obj.Open || obj.Kinds&^KindObject != 0 {
		return topShape()
	}
	return kindShape(KindNull)
}

func indexShape(obj *Shape) *Shape {
	if obj == nil || obj.Top || obj.Kinds&KindObject != 0 {
		return topShape()
	}
	var out *Shape
	if obj.Kinds&KindArray != 0 {
		out = out.Join(obj.Elem).Join(kindShape(KindNull))
	}
	if obj.Kinds&KindString != 0 {
		out = out.Join(kindShape(KindString))
	}
	if out == nil {
		return topShape()
	}
	return out
}

// returnShape computes a function's return shape, memoized with recursion
// detection (recursion widens to top).
func (c *shapeCtx) returnShape(name string, fl *funcLit) *Shape {
	switch c.retState[name] {
	case 1:
		return topShape()
	case 2:
		return c.retShape[name]
	}
	c.retState[name] = 1
	env, locals := c.fixpointEnv(fl)
	var ret *Shape
	inspect(fl.body, func(n node) bool {
		switch x := n.(type) {
		case expr:
			// Returns inside nested function literals are their own.
			return false
		case *returnStmt:
			if x.value == nil {
				ret = ret.Join(kindShape(KindNull))
			} else {
				ret = ret.Join(c.evalShape(x.value, env, locals))
			}
		}
		return true
	})
	// Falling off the end returns null.
	ret = ret.Join(kindShape(KindNull))
	c.retShape[name] = ret
	c.retState[name] = 2
	return ret
}

// ---- emit collection ----

type emitCollector struct {
	ctx    *shapeCtx
	sites  *[]EmitSite
	diags  *[]Diagnostic
	warned map[Position]bool
}

type emitScope struct {
	col    *emitCollector
	env    map[string]*Shape
	locals map[string]bool
}

func (col *emitCollector) scope(env map[string]*Shape, locals map[string]bool) *emitScope {
	return &emitScope{col: col, env: env, locals: locals}
}

// nested builds the scope for a function literal nested inside this one:
// its parameters and declarations shadow the enclosing bindings and are
// unknown (top) at analysis time.
func (sc *emitScope) nested(fl *funcLit) *emitScope {
	shadowed := make(map[string]bool)
	for _, pn := range fl.params {
		shadowed[pn] = true
	}
	collectDeclaredNames(fl.body, shadowed)
	env := make(map[string]*Shape, len(sc.env)+len(shadowed))
	locals := make(map[string]bool, len(sc.locals)+len(shadowed))
	for n, v := range sc.env {
		env[n] = v
	}
	for n, v := range sc.locals {
		locals[n] = v
	}
	for n := range shadowed {
		locals[n] = true
		env[n] = topShape()
	}
	return &emitScope{col: sc.col, env: env, locals: locals}
}

// walk records every call_module site under n, giving each nested
// function literal its own scope.
func (sc *emitScope) walk(n node) {
	inspect(n, func(n node) bool {
		switch x := n.(type) {
		case *funcLit:
			sc.nested(x).walk(x.body)
			return false
		case *callExpr:
			sc.emit(x)
		}
		return true
	})
}

// emit records a call_module site and reports PV018 when the payload shape
// degrades to top or an open object.
func (sc *emitScope) emit(call *callExpr) {
	id, ok := call.callee.(*identExpr)
	if !ok || id.name != "call_module" || len(call.args) == 0 {
		return
	}
	if sc.locals != nil && sc.locals["call_module"] {
		return
	}
	target := ""
	if s, isLit := call.args[0].(*stringLit); isLit {
		target = s.value
	}
	var payload *Shape
	if len(call.args) >= 2 {
		payload = sc.col.ctx.evalShape(call.args[1], sc.env, sc.locals)
	} else {
		// A missing payload delivers an empty body.
		payload = &Shape{Kinds: KindObject, Fields: map[string]*Shape{}}
	}
	*sc.col.sites = append(*sc.col.sites, EmitSite{Target: target, Pos: call.pos, Payload: payload})
	if payload.IsTop() || (payload.Kinds&KindObject != 0 && payload.Open) {
		if !sc.col.warned[call.pos] {
			sc.col.warned[call.pos] = true
			*sc.col.diags = append(*sc.col.diags, Diagnostic{
				Pos:      call.pos,
				Code:     CodeShapeUnknown,
				Severity: SeverityWarning,
				Message:  "call_module payload shape is unknowable (dynamic construction); downstream edge contract checks degrade to any",
			})
		}
	}
}

// ---- consumed side ----

type consumeFrag struct {
	dynamic bool
	fields  map[string]FieldUse
}

// consumeFunc infers which fields of parameter paramIdx a function reads.
// key memoizes interprocedural queries ("" for the entry query); recursion
// degrades to dynamic.
func (c *shapeCtx) consumeFunc(fl *funcLit, paramIdx int, key string) *consumeFrag {
	if key != "" {
		if c.consumeState[key] {
			return &consumeFrag{dynamic: true, fields: map[string]FieldUse{}}
		}
		if f, ok := c.consumeMemo[key]; ok {
			return f
		}
		c.consumeState[key] = true
		defer func() { c.consumeState[key] = false }()
	}
	frag := &consumeFrag{fields: make(map[string]FieldUse)}
	done := func() *consumeFrag {
		if key != "" {
			c.consumeMemo[key] = frag
		}
		return frag
	}
	if paramIdx >= len(fl.params) {
		return done()
	}
	param := fl.params[paramIdx]
	// Re-declaring or re-assigning the message parameter poisons field
	// attribution: degrade to dynamic with no recorded fields rather than
	// risk a false PV015.
	declared := make(map[string]bool)
	collectDeclaredNames(fl.body, declared)
	if declared[param] || assignsName(fl.body, param) {
		frag.dynamic = true
		return done()
	}
	w := &consumeWalker{ctx: c, frag: frag, aliases: c.aliasSet(fl, param)}
	for _, s := range fl.body.stmts {
		w.stmt(s)
	}
	return done()
}

// assignsName reports whether any assignment or update anywhere under b
// (including nested function bodies) targets the bare identifier name.
func assignsName(b *blockStmt, name string) bool {
	found := false
	inspect(b, func(n node) bool {
		found = found || assignsIdent(n, name)
		return !found
	})
	return found
}

// aliasSet qualifies local names that alias the message parameter: a
// single declaration `var x = <alias>` whose name is never re-assigned and
// never re-declared. Chains (var a = m; var b = a) qualify transitively.
func (c *shapeCtx) aliasSet(fl *funcLit, param string) map[string]bool {
	aliases := map[string]bool{param: true}
	declCount := make(map[string]int)
	type candidate struct{ name, from string }
	var cands []candidate
	inspect(fl.body, func(n node) bool {
		switch x := n.(type) {
		case expr:
			return false
		case *declStmt:
			declCount[x.name]++
			if id, ok := x.init.(*identExpr); ok {
				cands = append(cands, candidate{name: x.name, from: id.name})
			}
		case *forOfStmt:
			declCount[x.varName]++
		case *tryStmt:
			if x.catch != nil && x.catchVar != "" {
				declCount[x.catchVar]++
			}
		case *funcDecl:
			declCount[x.fn.name]++
			return false
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, cd := range cands {
			if aliases[cd.name] || !aliases[cd.from] {
				continue
			}
			if declCount[cd.name] != 1 || assignsName(fl.body, cd.name) {
				continue
			}
			aliases[cd.name] = true
			changed = true
		}
	}
	return aliases
}

type consumeWalker struct {
	ctx     *shapeCtx
	frag    *consumeFrag
	aliases map[string]bool
}

func (w *consumeWalker) record(field string, want KindSet, pos Position) {
	fu, ok := w.frag.fields[field]
	if !ok {
		w.frag.fields[field] = FieldUse{Pos: pos, Kinds: want}
		return
	}
	fu.Kinds = combineReq(fu.Kinds, want)
	w.frag.fields[field] = fu
}

// combineReq merges two kind requirements for the same field: no-
// constraint defers to the other side; overlapping constraints intersect;
// contradictory constraints fall back to the union (the script itself is
// inconsistent — don't manufacture an edge error from it).
func combineReq(a, b KindSet) KindSet {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	if a&b != 0 {
		return a & b
	}
	return a | b
}

func (w *consumeWalker) merge(f *consumeFrag) {
	if f.dynamic {
		w.frag.dynamic = true
	}
	for name, fu := range f.fields {
		w.record(name, fu.Kinds, fu.Pos)
	}
}

// nested walks a function literal defined inside the handler: aliases
// shadowed by its parameters or declarations stop qualifying inside it.
func (w *consumeWalker) nested(fl *funcLit) {
	shadowed := make(map[string]bool)
	for _, pn := range fl.params {
		shadowed[pn] = true
	}
	collectDeclaredNames(fl.body, shadowed)
	sub := &consumeWalker{ctx: w.ctx, frag: w.frag, aliases: make(map[string]bool, len(w.aliases))}
	for n := range w.aliases {
		if !shadowed[n] {
			sub.aliases[n] = true
		}
	}
	for _, s := range fl.body.stmts {
		sub.stmt(s)
	}
}

func (w *consumeWalker) stmt(s stmt) {
	switch st := s.(type) {
	case nil:
	case *exprStmt:
		w.expr(st.x, 0)
	case *declStmt:
		if st.init == nil {
			return
		}
		if id, ok := st.init.(*identExpr); ok && w.aliases[id.name] && w.aliases[st.name] {
			// A qualified alias declaration is not a wholesale use.
			return
		}
		w.expr(st.init, 0)
	case *blockStmt:
		for _, inner := range st.stmts {
			w.stmt(inner)
		}
	case *ifStmt:
		w.expr(st.cond, 0)
		w.stmt(st.then)
		w.stmt(st.elsE)
	case *whileStmt:
		w.expr(st.cond, 0)
		w.stmt(st.body)
	case *forStmt:
		w.stmt(st.init)
		w.expr(st.cond, 0)
		w.expr(st.post, 0)
		w.stmt(st.body)
	case *forOfStmt:
		if id, ok := st.iter.(*identExpr); ok && w.aliases[id.name] {
			// Iterating the message consumes every field.
			w.frag.dynamic = true
		} else {
			w.expr(st.iter, KindObject|KindArray|KindString)
		}
		w.stmt(st.body)
	case *returnStmt:
		w.expr(st.value, 0)
	case *throwStmt:
		w.expr(st.value, 0)
	case *tryStmt:
		w.stmt(st.body)
		if st.catch != nil {
			w.stmt(st.catch)
		}
		if st.finally != nil {
			w.stmt(st.finally)
		}
	case *switchStmt:
		w.expr(st.subject, 0)
		for _, cs := range st.cases {
			w.expr(cs.value, 0)
			for _, inner := range cs.body {
				w.stmt(inner)
			}
		}
		for _, inner := range st.defaultBody {
			w.stmt(inner)
		}
	case *funcDecl:
		w.nested(st.fn)
	}
}

func (w *consumeWalker) expr(e expr, want KindSet) {
	switch ex := e.(type) {
	case nil, *numberLit, *stringLit, *boolLit, *nullLit:
	case *identExpr:
		if w.aliases[ex.name] {
			// Bare use in an unknown context: the whole message escapes.
			w.frag.dynamic = true
		}
	case *arrayLit:
		for _, el := range ex.elems {
			w.expr(el, 0)
		}
	case *objectLit:
		for _, f := range ex.fields {
			w.expr(f.value, 0)
		}
	case *funcLit:
		w.nested(ex)
	case *unaryExpr:
		switch ex.op {
		case "-", "+":
			w.expr(ex.x, KindNumber)
		default:
			w.expr(ex.x, 0)
		}
	case *binaryExpr:
		switch ex.op {
		case "-", "*", "/", "%":
			w.expr(ex.x, KindNumber)
			w.expr(ex.y, KindNumber)
		case "+", "<", "<=", ">", ">=":
			w.expr(ex.x, KindNumber|KindString)
			w.expr(ex.y, KindNumber|KindString)
		default:
			w.expr(ex.x, 0)
			w.expr(ex.y, 0)
		}
	case *logicalExpr:
		w.expr(ex.x, 0)
		w.expr(ex.y, 0)
	case *condExpr:
		w.expr(ex.cond, 0)
		w.expr(ex.then, want)
		w.expr(ex.elsE, want)
	case *assignExpr:
		w.assign(ex)
	case *updateExpr:
		w.updateTarget(ex.target)
	case *callExpr:
		w.call(ex)
	case *memberExpr:
		if id, ok := ex.obj.(*identExpr); ok && w.aliases[id.name] {
			w.record(ex.name, want, ex.pos)
			return
		}
		w.expr(ex.obj, KindObject)
	case *indexExpr:
		if id, ok := ex.obj.(*identExpr); ok && w.aliases[id.name] {
			if s, isLit := ex.index.(*stringLit); isLit {
				w.record(s.value, want, ex.pos)
			} else {
				w.frag.dynamic = true
				w.expr(ex.index, 0)
			}
			return
		}
		w.expr(ex.obj, KindObject|KindArray|KindString)
		w.expr(ex.index, 0)
	}
}

func (w *consumeWalker) assign(ex *assignExpr) {
	switch t := ex.target.(type) {
	case *identExpr:
		// Writing a local; alias names were already disqualified.
	case *memberExpr:
		if id, ok := t.obj.(*identExpr); ok && w.aliases[id.name] {
			// A pure write adds a field without reading it; compound
			// assignment reads first.
			if ex.op != "=" {
				k := KindNumber
				if ex.op == "+=" {
					k = KindNumber | KindString
				}
				w.record(t.name, k, t.pos)
			}
		} else {
			w.expr(t.obj, KindObject)
		}
	case *indexExpr:
		if id, ok := t.obj.(*identExpr); ok && w.aliases[id.name] {
			if ex.op != "=" {
				if s, isLit := t.index.(*stringLit); isLit {
					w.record(s.value, KindNumber|KindString, t.pos)
				} else {
					w.frag.dynamic = true
				}
			}
			w.expr(t.index, 0)
		} else {
			w.expr(t.obj, KindObject|KindArray|KindString)
			w.expr(t.index, 0)
		}
	}
	w.expr(ex.value, 0)
}

func (w *consumeWalker) updateTarget(t expr) {
	switch tx := t.(type) {
	case *identExpr:
	case *memberExpr:
		if id, ok := tx.obj.(*identExpr); ok && w.aliases[id.name] {
			w.record(tx.name, KindNumber, tx.pos)
			return
		}
		w.expr(tx.obj, KindObject)
	case *indexExpr:
		if id, ok := tx.obj.(*identExpr); ok && w.aliases[id.name] {
			if s, isLit := tx.index.(*stringLit); isLit {
				w.record(s.value, KindNumber, tx.pos)
			} else {
				w.frag.dynamic = true
			}
			return
		}
		w.expr(tx.obj, KindObject|KindArray|KindString)
		w.expr(tx.index, 0)
	}
}

func (w *consumeWalker) call(ex *callExpr) {
	id, isIdent := ex.callee.(*identExpr)
	if !isIdent {
		w.expr(ex.callee, KindFunction)
		for _, a := range ex.args {
			w.argDefault(a)
		}
		return
	}
	// has(message, "field") names a field without consuming the whole
	// message — the idiomatic existence guard.
	if id.name == "has" && len(ex.args) == 2 {
		if aid, ok := ex.args[0].(*identExpr); ok && w.aliases[aid.name] {
			if s, isLit := ex.args[1].(*stringLit); isLit {
				w.record(s.value, 0, ex.pos)
			} else {
				w.frag.dynamic = true
				w.expr(ex.args[1], KindString)
			}
			return
		}
	}
	if d, ok := w.ctx.funcs[id.name]; ok {
		for i, a := range ex.args {
			if aid, isAlias := a.(*identExpr); isAlias && w.aliases[aid.name] {
				w.merge(w.ctx.consumeFunc(d.fn, i, id.name+"#"+strconv.Itoa(i)))
				continue
			}
			w.expr(a, 0)
		}
		return
	}
	if sig, ok := w.ctx.sigs[id.name]; ok {
		for i, a := range ex.args {
			if aid, isAlias := a.(*identExpr); isAlias && w.aliases[aid.name] {
				// The whole message escapes into a builtin or host call
				// (call_module, json_encode, keys, ...).
				w.frag.dynamic = true
				continue
			}
			w.expr(a, paramKinds(sig, i))
		}
		return
	}
	for _, a := range ex.args {
		w.argDefault(a)
	}
}

func (w *consumeWalker) argDefault(a expr) {
	if aid, ok := a.(*identExpr); ok && w.aliases[aid.name] {
		w.frag.dynamic = true
		return
	}
	w.expr(a, 0)
}

func paramKinds(sig Signature, i int) KindSet {
	if i < len(sig.Params) {
		return kindsFromType(sig.Params[i].Type)
	}
	if sig.Rest != "" {
		return kindsFromType(sig.Rest)
	}
	return 0
}
