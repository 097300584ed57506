package script

// The AST node hierarchy. Expressions and statements are separate interface
// families; every node carries its source position for error reporting.

type node interface{ position() Position }

// ---- Expressions ----

type expr interface {
	node
	exprNode()
}

type numberLit struct {
	pos   Position
	value float64
}

type stringLit struct {
	pos   Position
	value string
}

type boolLit struct {
	pos   Position
	value bool
}

type nullLit struct{ pos Position }

type identExpr struct {
	pos  Position
	name string
}

type arrayLit struct {
	pos   Position
	elems []expr
}

type objectField struct {
	key   string
	value expr
}

type objectLit struct {
	pos    Position
	fields []objectField
}

// funcLit covers both function expressions and (via name) declarations.
type funcLit struct {
	pos    Position
	name   string // empty for anonymous
	params []string
	body   *blockStmt
}

type unaryExpr struct {
	pos Position
	op  string // "-", "!", "typeof"
	x   expr
}

type binaryExpr struct {
	pos  Position
	op   string
	x, y expr
}

// logicalExpr short-circuits, unlike binaryExpr.
type logicalExpr struct {
	pos  Position
	op   string // "&&", "||"
	x, y expr
}

type condExpr struct {
	pos        Position
	cond       expr
	then, elsE expr
}

type assignExpr struct {
	pos    Position
	op     string // "=", "+=", ...
	target expr   // identExpr, memberExpr or indexExpr
	value  expr
}

// updateExpr is ++/-- (prefix or postfix).
type updateExpr struct {
	pos     Position
	op      string // "++", "--"
	target  expr
	postfix bool
}

type callExpr struct {
	pos    Position
	callee expr
	args   []expr
}

type memberExpr struct {
	pos  Position
	obj  expr
	name string
}

type indexExpr struct {
	pos   Position
	obj   expr
	index expr
}

func (e *numberLit) position() Position  { return e.pos }
func (e *stringLit) position() Position  { return e.pos }
func (e *boolLit) position() Position    { return e.pos }
func (e *nullLit) position() Position    { return e.pos }
func (e *identExpr) position() Position  { return e.pos }
func (e *arrayLit) position() Position   { return e.pos }
func (e *objectLit) position() Position  { return e.pos }
func (e *funcLit) position() Position    { return e.pos }
func (e *unaryExpr) position() Position  { return e.pos }
func (e *binaryExpr) position() Position { return e.pos }
func (e *logicalExpr) position() Position {
	return e.pos
}
func (e *condExpr) position() Position   { return e.pos }
func (e *assignExpr) position() Position { return e.pos }
func (e *updateExpr) position() Position { return e.pos }
func (e *callExpr) position() Position   { return e.pos }
func (e *memberExpr) position() Position { return e.pos }
func (e *indexExpr) position() Position  { return e.pos }

func (*numberLit) exprNode()   {}
func (*stringLit) exprNode()   {}
func (*boolLit) exprNode()     {}
func (*nullLit) exprNode()     {}
func (*identExpr) exprNode()   {}
func (*arrayLit) exprNode()    {}
func (*objectLit) exprNode()   {}
func (*funcLit) exprNode()     {}
func (*unaryExpr) exprNode()   {}
func (*binaryExpr) exprNode()  {}
func (*logicalExpr) exprNode() {}
func (*condExpr) exprNode()    {}
func (*assignExpr) exprNode()  {}
func (*updateExpr) exprNode()  {}
func (*callExpr) exprNode()    {}
func (*memberExpr) exprNode()  {}
func (*indexExpr) exprNode()   {}

// ---- Statements ----

type stmt interface {
	node
	stmtNode()
}

type exprStmt struct {
	pos Position
	x   expr
}

// declStmt declares one variable (var/let/const).
type declStmt struct {
	pos      Position
	kind     string // "var", "let", "const"
	name     string
	init     expr // may be nil
	constant bool
}

type blockStmt struct {
	pos   Position
	stmts []stmt
}

type ifStmt struct {
	pos  Position
	cond expr
	then stmt
	elsE stmt // may be nil
}

type whileStmt struct {
	pos  Position
	cond expr
	body stmt
}

type forStmt struct {
	pos  Position
	init stmt // may be nil (declStmt or exprStmt)
	cond expr // may be nil
	post expr // may be nil
	body stmt
}

// forOfStmt iterates over array elements or object keys.
type forOfStmt struct {
	pos     Position
	varName string
	iter    expr
	body    stmt
}

type returnStmt struct {
	pos   Position
	value expr // may be nil
}

type breakStmt struct{ pos Position }

type continueStmt struct{ pos Position }

type throwStmt struct {
	pos   Position
	value expr
}

type tryStmt struct {
	pos      Position
	body     *blockStmt
	catchVar string
	catch    *blockStmt // may be nil
	finally  *blockStmt // may be nil
}

// switchStmt is a switch over strict-equality cases.
type switchStmt struct {
	pos     Position
	subject expr
	cases   []switchCase
	// defaultBody may be nil.
	defaultBody []stmt
}

type switchCase struct {
	value expr
	body  []stmt
}

// funcDecl binds a function literal to a name in the current scope.
type funcDecl struct {
	pos Position
	fn  *funcLit
}

func (s *exprStmt) position() Position     { return s.pos }
func (s *declStmt) position() Position     { return s.pos }
func (s *blockStmt) position() Position    { return s.pos }
func (s *ifStmt) position() Position       { return s.pos }
func (s *whileStmt) position() Position    { return s.pos }
func (s *forStmt) position() Position      { return s.pos }
func (s *forOfStmt) position() Position    { return s.pos }
func (s *returnStmt) position() Position   { return s.pos }
func (s *breakStmt) position() Position    { return s.pos }
func (s *continueStmt) position() Position { return s.pos }
func (s *throwStmt) position() Position    { return s.pos }
func (s *tryStmt) position() Position      { return s.pos }
func (s *switchStmt) position() Position   { return s.pos }
func (s *funcDecl) position() Position     { return s.pos }

func (*exprStmt) stmtNode()     {}
func (*declStmt) stmtNode()     {}
func (*blockStmt) stmtNode()    {}
func (*ifStmt) stmtNode()       {}
func (*whileStmt) stmtNode()    {}
func (*forStmt) stmtNode()      {}
func (*forOfStmt) stmtNode()    {}
func (*returnStmt) stmtNode()   {}
func (*breakStmt) stmtNode()    {}
func (*continueStmt) stmtNode() {}
func (*throwStmt) stmtNode()    {}
func (*tryStmt) stmtNode()      {}
func (*switchStmt) stmtNode()   {}
func (*funcDecl) stmtNode()     {}

// program is a parsed compilation unit.
type program struct {
	stmts []stmt
	// defs lists every top-level function definition (`function f` or
	// `var f = function`) in source order; funcs maps each name to its last
	// definition, the one the interpreter's load leaves bound.
	defs  []funcDef
	funcs map[string]funcDef
}

// funcDef is one top-level function definition; pos is the position of
// the defining statement.
type funcDef struct {
	name string
	fn   *funcLit
	pos  Position
}

// indexFuncs builds the program's top-level function table.
func (p *program) indexFuncs() {
	p.funcs = make(map[string]funcDef)
	for _, s := range p.stmts {
		var d funcDef
		switch st := s.(type) {
		case *funcDecl:
			d = funcDef{name: st.fn.name, fn: st.fn, pos: st.pos}
		case *declStmt:
			fn, ok := st.init.(*funcLit)
			if !ok {
				continue
			}
			d = funcDef{name: st.name, fn: fn, pos: st.pos}
		default:
			continue
		}
		p.defs = append(p.defs, d)
		p.funcs[d.name] = d
	}
}

// inspect traverses the tree rooted at n in depth-first order, like
// go/ast.Inspect: it calls f(n) and, when f returns true, inspects each of
// n's children in source order. It descends into function bodies (a
// funcDecl's child is its funcLit, whose child is the body) and skips
// absent optional parts. Passes that only need to find or collect nodes
// are visitors over inspect; passes that compute per-construct semantics
// (cost, shapes, frame flow, scoping) keep their own switch.
func inspect(n node, f func(node) bool) {
	if n == nil || !f(n) {
		return
	}
	// Optional parts are interface-typed (nil when absent) or *blockStmt
	// pointers, which must be checked before boxing into a node.
	opt := func(b *blockStmt) {
		if b != nil {
			inspect(b, f)
		}
	}
	list := func(stmts []stmt) {
		for _, s := range stmts {
			inspect(s, f)
		}
	}
	switch x := n.(type) {
	case *arrayLit:
		for _, el := range x.elems {
			inspect(el, f)
		}
	case *objectLit:
		for _, fld := range x.fields {
			inspect(fld.value, f)
		}
	case *funcLit:
		opt(x.body)
	case *unaryExpr:
		inspect(x.x, f)
	case *binaryExpr:
		inspect(x.x, f)
		inspect(x.y, f)
	case *logicalExpr:
		inspect(x.x, f)
		inspect(x.y, f)
	case *condExpr:
		inspect(x.cond, f)
		inspect(x.then, f)
		inspect(x.elsE, f)
	case *assignExpr:
		inspect(x.target, f)
		inspect(x.value, f)
	case *updateExpr:
		inspect(x.target, f)
	case *callExpr:
		inspect(x.callee, f)
		for _, a := range x.args {
			inspect(a, f)
		}
	case *memberExpr:
		inspect(x.obj, f)
	case *indexExpr:
		inspect(x.obj, f)
		inspect(x.index, f)
	case *exprStmt:
		inspect(x.x, f)
	case *declStmt:
		inspect(x.init, f)
	case *blockStmt:
		list(x.stmts)
	case *ifStmt:
		inspect(x.cond, f)
		inspect(x.then, f)
		inspect(x.elsE, f)
	case *whileStmt:
		inspect(x.cond, f)
		inspect(x.body, f)
	case *forStmt:
		inspect(x.init, f)
		inspect(x.cond, f)
		inspect(x.post, f)
		inspect(x.body, f)
	case *forOfStmt:
		inspect(x.iter, f)
		inspect(x.body, f)
	case *returnStmt:
		inspect(x.value, f)
	case *throwStmt:
		inspect(x.value, f)
	case *tryStmt:
		opt(x.body)
		opt(x.catch)
		opt(x.finally)
	case *switchStmt:
		inspect(x.subject, f)
		for _, c := range x.cases {
			inspect(c.value, f)
			list(c.body)
		}
		list(x.defaultBody)
	case *funcDecl:
		inspect(x.fn, f)
	}
}
