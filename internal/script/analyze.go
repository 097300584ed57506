package script

import (
	"fmt"
	"sort"
)

// pipevet: a static analyzer for PipeScript module sources. Analyze walks
// the AST produced by parse and reports positioned diagnostics for the
// mistakes that would otherwise surface as RuntimeErrors mid-stream:
// undefined identifiers, straight-line use before declaration, duplicate
// declarations, assignments to consts, arity/type mismatches against the
// shared host/builtin signature table (signatures.go), plus style-level
// warnings (unused variables, unreachable code, assignment-in-condition).
//
// The checker mirrors the interpreter's actual scoping rules rather than
// JavaScript's: declarations are NOT hoisted and take effect at their
// execution point, var/let/const are all block-scoped, and assignment to an
// undeclared name is an error (no implicit globals). References from inside
// a nested function body to a later top-level declaration are legal — the
// function runs after the whole unit loaded — so use-before-declaration
// only fires when the reference executes in the same straight-line function
// depth as the declaration.

// Severity ranks diagnostics. Errors reject a pipeline at deploy time;
// warnings are advisory and only logged.
type Severity int

const (
	SeverityWarning Severity = iota
	SeverityError
)

func (s Severity) String() string {
	if s == SeverityError {
		return "error"
	}
	return "warning"
}

// Diagnostic codes reported by Analyze. internal/core adds the PV1xx range
// for config cross-checks.
const (
	CodeSyntax          = "PV000" // source does not parse
	CodeUndefined       = "PV001" // reference to an undefined identifier
	CodeUseBeforeDecl   = "PV002" // straight-line use before declaration
	CodeUnused          = "PV003" // variable or parameter never read
	CodeUnreachable     = "PV004" // statement after return/throw/break/continue
	CodeCondAssign      = "PV005" // assignment used as a condition
	CodeDuplicate       = "PV006" // duplicate declaration in one scope
	CodeBadCall         = "PV007" // arity/type mismatch against a known signature
	CodeNoHandler       = "PV008" // reachable module defines no event_received
	CodeBadCallback     = "PV009" // lifecycle callback declared with wrong arity
	CodeConstAssign     = "PV010" // assignment to a const
	CodeFrameHeld       = "PV011" // frame held across call_service, neither forwarded nor dropped
	CodeUnboundedLoop   = "PV012" // loop with no statically inferable iteration bound
	CodeUnboundableCost = "PV013" // handler cost unboundable (recursion or dynamic call)
	CodeShapeUnknown    = "PV018" // emitted payload shape unknowable (dynamic construction)
)

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Pos      Position
	Code     string
	Severity Severity
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s %s: %s", d.Pos, d.Severity, d.Code, d.Message)
}

// Options configures an Analyze pass.
type Options struct {
	// Globals names extra identifiers to treat as defined (beyond the
	// signature table), e.g. host bindings added by a test harness.
	Globals []string
	// Signatures overrides the call-site signature table; nil means
	// CallSignatures() — the merged stdlib + Table-1 host API.
	Signatures map[string]Signature
	// RequireEventReceived makes a missing event_received definition an
	// error (PV008). core sets it for modules reachable from the source.
	RequireEventReceived bool
}

// TargetRef records a literal call_service / call_module target and where
// it appears, for config cross-checking.
type TargetRef struct {
	Name string
	Pos  Position
}

// Facts summarizes what the analyzer learned about a module beyond
// diagnostics; internal/core cross-checks them against the ModuleConfig.
type Facts struct {
	// ServiceTargets / ModuleTargets list literal first arguments of
	// call_service / call_module call sites.
	ServiceTargets []TargetRef
	ModuleTargets  []TargetRef
	// DynamicServiceTargets / DynamicModuleTargets count call sites whose
	// target is computed at runtime; when non-zero, "declared but never
	// referenced" warnings are suppressed.
	DynamicServiceTargets int
	DynamicModuleTargets  int
	// HasEventReceived / HasInit report whether the module defines the
	// lifecycle callbacks at the top level.
	HasEventReceived bool
	HasInit          bool
}

// Report is the result of one Analyze pass.
type Report struct {
	Diagnostics []Diagnostic
	Facts       Facts
	// Cost is the pipecost result: per-handler worst-case instruction and
	// allocation bounds (cost.go). Empty when the source does not parse.
	Cost CostReport
	// Shapes is the pipetype result: produced payload shapes per
	// call_module target and the consumed shape of event_received
	// (shapes.go). Empty when the source does not parse.
	Shapes ShapeReport
}

// HasErrors reports whether any diagnostic is error severity.
func (r Report) HasErrors() bool {
	for _, d := range r.Diagnostics {
		if d.Severity == SeverityError {
			return true
		}
	}
	return false
}

// Errors returns only the error-severity diagnostics.
func (r Report) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == SeverityError {
			out = append(out, d)
		}
	}
	return out
}

// Analyze parses src and runs the pipevet checks over it. A syntax error
// yields a single PV000 diagnostic. Diagnostics come back sorted by
// position.
func Analyze(src string, opts Options) Report {
	prog, err := parse(src)
	if err != nil {
		var rep Report
		if se, ok := err.(*SyntaxError); ok {
			rep.Diagnostics = []Diagnostic{{Pos: se.Pos, Code: CodeSyntax, Severity: SeverityError, Message: se.Msg}}
		} else {
			rep.Diagnostics = []Diagnostic{{Code: CodeSyntax, Severity: SeverityError, Message: err.Error()}}
		}
		return rep
	}

	a := &analyzer{opts: opts, sigs: opts.Signatures}
	if a.sigs == nil {
		a.sigs = CallSignatures()
	}
	a.run(prog)

	// pipecost: worst-case instruction/allocation bounds per handler, with
	// PV012/PV013 diagnostics for what cannot be bounded (cost.go).
	cost, costDiags := costPass(prog, a.sigs, opts.Globals)
	a.diags = append(a.diags, costDiags...)

	// pipetype: produced/consumed event shapes per module, with PV018 for
	// payloads that degrade to top (shapes.go).
	shapes, shapeDiags := shapePass(prog, a.sigs, opts.Globals)
	a.diags = append(a.diags, shapeDiags...)

	sort.SliceStable(a.diags, func(i, j int) bool {
		pi, pj := a.diags[i].Pos, a.diags[j].Pos
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Col < pj.Col
	})
	return Report{Diagnostics: a.diags, Facts: a.facts, Cost: cost, Shapes: shapes}
}

// ---- scope model ----

type declKind int

const (
	declBuiltin declKind = iota
	declVar
	declConst
	declFunc
	declParam
	declCatch
)

type declInfo struct {
	name string
	pos  Position
	kind declKind
	// reached flips true once straight-line execution passes the
	// declaration; references before that at the same function depth are
	// PV002.
	reached bool
	reads   int
	sig     *Signature // non-nil for signature-table builtins
}

type aScope struct {
	parent *aScope
	// funcDepth is how many function bodies enclose this scope; the global
	// scope is 0.
	funcDepth int
	decls     map[string]*declInfo
	// order keeps user declarations in source order for deterministic
	// unused-variable reporting.
	order []*declInfo
}

func newAScope(parent *aScope, funcDepth int) *aScope {
	return &aScope{parent: parent, funcDepth: funcDepth, decls: make(map[string]*declInfo)}
}

type analyzer struct {
	opts  Options
	sigs  map[string]Signature
	diags []Diagnostic
	facts Facts
}

func (a *analyzer) diag(pos Position, code string, sev Severity, msg string) {
	a.diags = append(a.diags, Diagnostic{Pos: pos, Code: code, Severity: sev, Message: msg})
}

func (a *analyzer) run(prog *program) {
	global := newAScope(nil, 0)
	for name := range a.sigs {
		s := a.sigs[name]
		if s.Callback {
			continue // init/event_received are defined by the module, not for it
		}
		global.decls[name] = &declInfo{name: name, kind: declBuiltin, reached: true, sig: &s}
	}
	for _, name := range a.opts.Globals {
		if _, ok := global.decls[name]; !ok {
			global.decls[name] = &declInfo{name: name, kind: declBuiltin, reached: true}
		}
	}

	a.collect(prog.stmts, global)
	a.stmts(prog.stmts, global, 0)
	a.finish(global)

	for _, d := range prog.defs {
		a.noteCallback(d.name, len(d.fn.params), d.pos)
	}
	if a.opts.RequireEventReceived && !a.facts.HasEventReceived {
		a.diag(Position{Line: 1, Col: 1}, CodeNoHandler, SeverityError,
			"module defines no event_received(message) handler but is reachable from the source")
	}

	a.frameFlow(prog) // PV011: frame held across call_service (frameflow.go)
}

// noteCallback records lifecycle-callback definitions and checks their
// declared arity against the callback signature (PV009).
func (a *analyzer) noteCallback(name string, nparams int, pos Position) {
	switch name {
	case "event_received":
		a.facts.HasEventReceived = true
	case "init":
		a.facts.HasInit = true
	default:
		return
	}
	sig, ok := HostSignature(name)
	if !ok || !sig.Callback {
		return
	}
	if nparams < sig.Min || (sig.Max >= 0 && nparams > sig.Max) {
		a.diag(pos, CodeBadCallback, SeverityWarning,
			fmt.Sprintf("%s is declared with %d parameters; the runtime passes %s", name, nparams, callbackArgs(sig)))
	}
}

func callbackArgs(sig Signature) string {
	if sig.Max == 0 {
		return "none"
	}
	return fmt.Sprintf("at most %d", sig.Max)
}

// collect pre-registers the declarations of one statement list so duplicate
// declarations (PV006) are caught and later straight-line references can be
// distinguished from truly undefined names (PV002 vs PV001).
func (a *analyzer) collect(list []stmt, sc *aScope) {
	for _, s := range list {
		switch st := s.(type) {
		case *declStmt:
			kind := declVar
			if st.constant {
				kind = declConst
			}
			a.declare(sc, st.name, st.pos, kind)
		case *funcDecl:
			a.declare(sc, st.fn.name, st.pos, declFunc)
		}
	}
}

func (a *analyzer) declare(sc *aScope, name string, pos Position, kind declKind) *declInfo {
	if prev, ok := sc.decls[name]; ok && prev.kind != declBuiltin {
		a.diag(pos, CodeDuplicate, SeverityError,
			fmt.Sprintf("%q is already declared in this scope (first at %s)", name, prev.pos))
	}
	d := &declInfo{name: name, pos: pos, kind: kind}
	sc.decls[name] = d
	sc.order = append(sc.order, d)
	return d
}

// resolve walks the scope chain; it returns the declaration and the scope
// that holds it.
func (a *analyzer) resolve(name string, sc *aScope) (*declInfo, *aScope) {
	for s := sc; s != nil; s = s.parent {
		if d, ok := s.decls[name]; ok {
			return d, s
		}
	}
	return nil, nil
}

// finish reports unused declarations (PV003) when a scope closes. Function
// declarations and catch variables are exempt; so is the implicit
// `arguments` array.
func (a *analyzer) finish(sc *aScope) {
	for _, d := range sc.order {
		if d.reads > 0 || d.kind == declFunc || d.kind == declCatch || d.kind == declBuiltin {
			continue
		}
		noun := "variable"
		if d.kind == declParam {
			noun = "parameter"
		}
		a.diag(d.pos, CodeUnused, SeverityWarning,
			fmt.Sprintf("%s %q is declared and never read", noun, d.name))
	}
}

// ---- statements ----

// stmts walks a statement list, tracking termination to flag the first
// unreachable statement (PV004).
func (a *analyzer) stmts(list []stmt, sc *aScope, fd int) {
	terminated := false
	for _, s := range list {
		if terminated {
			a.diag(s.position(), CodeUnreachable, SeverityWarning,
				"unreachable code (follows return/throw/break/continue)")
			terminated = false // report once per list, keep checking the rest
		}
		a.stmt(s, sc, fd)
		if terminates(s) {
			terminated = true
		}
	}
}

// terminates reports whether a statement unconditionally leaves the
// enclosing statement list.
func terminates(s stmt) bool {
	switch st := s.(type) {
	case *returnStmt, *throwStmt, *breakStmt, *continueStmt:
		return true
	case *blockStmt:
		for _, inner := range st.stmts {
			if terminates(inner) {
				return true
			}
		}
	case *ifStmt:
		return st.elsE != nil && terminates(st.then) && terminates(st.elsE)
	}
	return false
}

func (a *analyzer) stmt(s stmt, sc *aScope, fd int) {
	switch st := s.(type) {
	case *exprStmt:
		a.expr(st.x, sc, fd)
	case *declStmt:
		if st.init != nil {
			a.expr(st.init, sc, fd)
		}
		if d, ok := sc.decls[st.name]; ok {
			d.reached = true
		}
	case *blockStmt:
		ns := newAScope(sc, fd)
		a.collect(st.stmts, ns)
		a.stmts(st.stmts, ns, fd)
		a.finish(ns)
	case *ifStmt:
		a.cond(st.cond, sc, fd)
		a.stmt(st.then, sc, fd)
		if st.elsE != nil {
			a.stmt(st.elsE, sc, fd)
		}
	case *whileStmt:
		a.cond(st.cond, sc, fd)
		a.stmt(st.body, sc, fd)
	case *forStmt:
		ns := newAScope(sc, fd)
		if st.init != nil {
			a.collect([]stmt{st.init}, ns)
			a.stmt(st.init, ns, fd)
		}
		if st.cond != nil {
			a.cond(st.cond, ns, fd)
		}
		a.stmt(st.body, ns, fd)
		if st.post != nil {
			a.expr(st.post, ns, fd)
		}
		a.finish(ns)
	case *forOfStmt:
		a.expr(st.iter, sc, fd)
		ns := newAScope(sc, fd)
		d := a.declare(ns, st.varName, st.pos, declVar)
		d.reached = true
		d.reads++ // the loop variable is bound each iteration; not "unused"
		a.stmt(st.body, ns, fd)
		a.finish(ns)
	case *returnStmt:
		if st.value != nil {
			a.expr(st.value, sc, fd)
		}
	case *breakStmt, *continueStmt:
		// nothing to check
	case *throwStmt:
		a.expr(st.value, sc, fd)
	case *tryStmt:
		a.stmt(st.body, sc, fd)
		if st.catch != nil {
			// The interpreter binds the catch variable in the same
			// environment the catch statements execute in.
			ns := newAScope(sc, fd)
			if st.catchVar != "" {
				d := a.declare(ns, st.catchVar, st.catch.pos, declCatch)
				d.reached = true
			}
			a.collect(st.catch.stmts, ns)
			a.stmts(st.catch.stmts, ns, fd)
			a.finish(ns)
		}
		if st.finally != nil {
			a.stmt(st.finally, sc, fd)
		}
	case *switchStmt:
		a.expr(st.subject, sc, fd)
		// The interpreter shares one environment across all case bodies;
		// analyzing each body in its own scope is slightly stricter (a
		// fallthrough reference to a previous case's variable is flagged)
		// but catches the common bug of relying on a sibling case's state.
		for _, c := range st.cases {
			a.expr(c.value, sc, fd)
			ns := newAScope(sc, fd)
			a.collect(c.body, ns)
			a.stmts(c.body, ns, fd)
			a.finish(ns)
		}
		if st.defaultBody != nil {
			ns := newAScope(sc, fd)
			a.collect(st.defaultBody, ns)
			a.stmts(st.defaultBody, ns, fd)
			a.finish(ns)
		}
	case *funcDecl:
		if d, ok := sc.decls[st.fn.name]; ok {
			d.reached = true
		}
		a.function(st.fn, sc, fd)
	}
}

// cond analyzes a condition expression, flagging plain assignment used as a
// condition (PV005).
func (a *analyzer) cond(e expr, sc *aScope, fd int) {
	if as, ok := e.(*assignExpr); ok && as.op == "=" {
		a.diag(as.pos, CodeCondAssign, SeverityWarning,
			"assignment in condition (use == to compare)")
	}
	a.expr(e, sc, fd)
}

// function analyzes a function body one function depth deeper. Parameters
// live in the same environment the body statements execute in, matching the
// interpreter.
func (a *analyzer) function(fn *funcLit, sc *aScope, fd int) {
	ns := newAScope(sc, fd+1)
	for _, p := range fn.params {
		d := a.declare(ns, p, fn.pos, declParam)
		d.reached = true
	}
	// The interpreter defines `arguments` implicitly in every call frame.
	ns.decls["arguments"] = &declInfo{name: "arguments", kind: declBuiltin, reached: true}
	a.collect(fn.body.stmts, ns)
	a.stmts(fn.body.stmts, ns, fd+1)
	a.finish(ns)
}

// ---- expressions ----

func (a *analyzer) expr(e expr, sc *aScope, fd int) {
	switch ex := e.(type) {
	case *numberLit, *stringLit, *boolLit, *nullLit:
		// literals
	case *identExpr:
		a.use(ex, sc, fd)
	case *arrayLit:
		for _, el := range ex.elems {
			a.expr(el, sc, fd)
		}
	case *objectLit:
		for _, f := range ex.fields {
			a.expr(f.value, sc, fd)
		}
	case *funcLit:
		a.function(ex, sc, fd)
	case *unaryExpr:
		a.expr(ex.x, sc, fd)
	case *binaryExpr:
		a.expr(ex.x, sc, fd)
		a.expr(ex.y, sc, fd)
	case *logicalExpr:
		a.expr(ex.x, sc, fd)
		a.expr(ex.y, sc, fd)
	case *condExpr:
		a.cond(ex.cond, sc, fd)
		a.expr(ex.then, sc, fd)
		a.expr(ex.elsE, sc, fd)
	case *assignExpr:
		a.expr(ex.value, sc, fd)
		a.assignTarget(ex.target, sc, fd, ex.op != "=")
	case *updateExpr:
		a.assignTarget(ex.target, sc, fd, true)
	case *callExpr:
		a.call(ex, sc, fd)
	case *memberExpr:
		a.expr(ex.obj, sc, fd)
	case *indexExpr:
		a.expr(ex.obj, sc, fd)
		a.expr(ex.index, sc, fd)
	}
}

// use resolves an identifier read, counting it and reporting PV001/PV002.
func (a *analyzer) use(ex *identExpr, sc *aScope, fd int) *declInfo {
	d, ds := a.resolve(ex.name, sc)
	if d == nil {
		a.diag(ex.pos, CodeUndefined, SeverityError,
			fmt.Sprintf("%q is not defined", ex.name))
		return nil
	}
	d.reads++
	if !d.reached && ds.funcDepth == fd {
		a.diag(ex.pos, CodeUseBeforeDecl, SeverityError,
			fmt.Sprintf("%q is used before its declaration at %s", ex.name, d.pos))
	}
	return d
}

// assignTarget resolves an assignment/update target. reads marks compound
// forms (+=, ++) that read the previous value.
func (a *analyzer) assignTarget(target expr, sc *aScope, fd int, reads bool) {
	switch tg := target.(type) {
	case *identExpr:
		d, ds := a.resolve(tg.name, sc)
		if d == nil {
			a.diag(tg.pos, CodeUndefined, SeverityError,
				fmt.Sprintf("%q is not defined (PipeScript has no implicit globals; declare it with var)", tg.name))
			return
		}
		if d.kind == declConst {
			a.diag(tg.pos, CodeConstAssign, SeverityError,
				fmt.Sprintf("cannot assign to constant %q (declared at %s)", tg.name, d.pos))
		}
		if reads {
			d.reads++
		}
		if !d.reached && ds.funcDepth == fd {
			a.diag(tg.pos, CodeUseBeforeDecl, SeverityError,
				fmt.Sprintf("%q is assigned before its declaration at %s", tg.name, d.pos))
		}
	case *memberExpr:
		a.expr(tg.obj, sc, fd)
	case *indexExpr:
		a.expr(tg.obj, sc, fd)
		a.expr(tg.index, sc, fd)
	default:
		a.expr(target, sc, fd)
	}
}

// call analyzes a call site. When the callee resolves to a signature-table
// builtin, arity and literal argument types are checked (PV007), and
// call_service / call_module literal targets are recorded as Facts.
func (a *analyzer) call(ex *callExpr, sc *aScope, fd int) {
	for _, arg := range ex.args {
		a.expr(arg, sc, fd)
	}
	id, ok := ex.callee.(*identExpr)
	if !ok {
		a.expr(ex.callee, sc, fd)
		return
	}
	d := a.use(id, sc, fd)
	if d == nil || d.kind != declBuiltin || d.sig == nil {
		return
	}
	sig := *d.sig

	n := len(ex.args)
	switch {
	case n < sig.Min:
		a.diag(ex.pos, CodeBadCall, SeverityError,
			fmt.Sprintf("%s expects %s, got %d", sig.Name, arityWord(sig), n))
	case sig.Max >= 0 && n > sig.Max:
		a.diag(ex.pos, CodeBadCall, SeverityError,
			fmt.Sprintf("%s expects %s, got %d", sig.Name, arityWord(sig), n))
	default:
		for i, arg := range ex.args {
			var want string
			if i < len(sig.Params) {
				want = sig.Params[i].Type
			} else {
				want = sig.Rest
			}
			if want == "" || want == "any" {
				continue
			}
			got := litType(arg)
			if got == "" {
				continue // not a literal; checked at runtime
			}
			if got == "null" && i >= sig.Min {
				continue
			}
			if !typeAllowed(want, got) {
				name := fmt.Sprintf("argument %d", i+1)
				if i < len(sig.Params) {
					name = sig.Params[i].Name
				}
				a.diag(arg.position(), CodeBadCall, SeverityError,
					fmt.Sprintf("%s: %s must be %s, got %s", sig.Name, name, withArticle(want), got))
			}
		}
	}

	switch id.name {
	case "call_service":
		a.recordTarget(ex, &a.facts.ServiceTargets, &a.facts.DynamicServiceTargets)
	case "call_module":
		a.recordTarget(ex, &a.facts.ModuleTargets, &a.facts.DynamicModuleTargets)
	}
}

func (a *analyzer) recordTarget(ex *callExpr, refs *[]TargetRef, dynamic *int) {
	if len(ex.args) == 0 {
		return
	}
	if s, ok := ex.args[0].(*stringLit); ok {
		*refs = append(*refs, TargetRef{Name: s.value, Pos: s.pos})
	} else {
		*dynamic++
	}
}

// arityWord renders a signature's accepted argument count for messages.
func arityWord(sig Signature) string {
	switch {
	case sig.Max < 0:
		return fmt.Sprintf("at least %d arguments", sig.Min)
	case sig.Min == sig.Max && sig.Min == 0:
		return "no arguments"
	case sig.Min == sig.Max && sig.Min == 1:
		return "1 argument"
	case sig.Min == sig.Max:
		return fmt.Sprintf("%d arguments", sig.Min)
	default:
		return fmt.Sprintf("%d to %d arguments", sig.Min, sig.Max)
	}
}

// litType returns the PipeScript type of a literal expression, or "" when
// the value is only known at runtime.
func litType(e expr) string {
	switch ex := e.(type) {
	case *numberLit:
		return "number"
	case *stringLit:
		return "string"
	case *boolLit:
		return "boolean"
	case *nullLit:
		return "null"
	case *arrayLit:
		return "array"
	case *objectLit:
		return "object"
	case *funcLit:
		return "function"
	case *unaryExpr:
		if ex.op == "-" {
			if litType(ex.x) == "number" {
				return "number"
			}
		}
		if ex.op == "!" {
			return "boolean"
		}
		if ex.op == "typeof" {
			return "string"
		}
	}
	return ""
}
