package script

import "fmt"

// parser builds the AST from a token stream using recursive descent with a
// precedence-climbing expression core.
type parser struct {
	toks []token
	pos  int
}

// parse parses a full PipeScript program.
func parse(src string) (*program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &program{}
	for !p.atEOF() {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		prog.stmts = append(prog.stmts, s)
	}
	prog.indexFuncs()
	return prog, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokenEOF }

func (p *parser) advance() token {
	t := p.cur()
	if t.kind != tokenEOF {
		p.pos++
	}
	return t
}

func (p *parser) isPunct(s string) bool {
	t := p.cur()
	return t.kind == tokenPunct && t.text == s
}

func (p *parser) isKeyword(s string) bool {
	t := p.cur()
	return t.kind == tokenKeyword && t.text == s
}

func (p *parser) acceptPunct(s string) bool {
	if p.isPunct(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptKeyword(s string) bool {
	if p.isKeyword(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errorf("expected %q, found %s", s, p.cur())
	}
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &SyntaxError{Pos: p.cur().pos, Msg: fmt.Sprintf(format, args...)}
}

// ---- Statements ----

func (p *parser) statement() (stmt, error) {
	t := p.cur()
	switch {
	case p.isPunct("{"):
		return p.block()
	case p.isPunct(";"):
		p.advance()
		return &blockStmt{pos: t.pos}, nil
	case t.kind == tokenKeyword:
		switch t.text {
		case "var", "let", "const":
			s, err := p.declaration()
			if err != nil {
				return nil, err
			}
			p.acceptPunct(";")
			return s, nil
		case "function":
			return p.functionDecl()
		case "if":
			return p.ifStatement()
		case "while":
			return p.whileStatement()
		case "for":
			return p.forStatement()
		case "return":
			p.advance()
			s := &returnStmt{pos: t.pos}
			if !p.isPunct(";") && !p.isPunct("}") && !p.atEOF() {
				v, err := p.expression()
				if err != nil {
					return nil, err
				}
				s.value = v
			}
			p.acceptPunct(";")
			return s, nil
		case "break":
			p.advance()
			p.acceptPunct(";")
			return &breakStmt{pos: t.pos}, nil
		case "continue":
			p.advance()
			p.acceptPunct(";")
			return &continueStmt{pos: t.pos}, nil
		case "throw":
			p.advance()
			v, err := p.expression()
			if err != nil {
				return nil, err
			}
			p.acceptPunct(";")
			return &throwStmt{pos: t.pos, value: v}, nil
		case "try":
			return p.tryStatement()
		case "switch":
			return p.switchStatement()
		}
	}
	// Expression statement.
	x, err := p.expression()
	if err != nil {
		return nil, err
	}
	p.acceptPunct(";")
	return &exprStmt{pos: t.pos, x: x}, nil
}

func (p *parser) block() (*blockStmt, error) {
	pos := p.cur().pos
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	b := &blockStmt{pos: pos}
	for !p.isPunct("}") {
		if p.atEOF() {
			return nil, p.errorf("unterminated block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		b.stmts = append(b.stmts, s)
	}
	p.advance() // consume }
	return b, nil
}

func (p *parser) declaration() (stmt, error) {
	kw := p.advance() // var/let/const
	name := p.cur()
	if name.kind != tokenIdent {
		return nil, p.errorf("expected identifier after %s, found %s", kw.text, name)
	}
	p.advance()
	d := &declStmt{pos: kw.pos, kind: kw.text, name: name.text, constant: kw.text == "const"}
	if p.acceptPunct("=") {
		v, err := p.expression()
		if err != nil {
			return nil, err
		}
		d.init = v
	} else if d.constant {
		return nil, p.errorf("const %q requires an initializer", name.text)
	}
	return d, nil
}

func (p *parser) functionDecl() (stmt, error) {
	pos := p.cur().pos
	p.advance() // function
	name := p.cur()
	if name.kind != tokenIdent {
		return nil, p.errorf("expected function name, found %s", name)
	}
	p.advance()
	fn, err := p.functionRest(pos, name.text)
	if err != nil {
		return nil, err
	}
	return &funcDecl{pos: pos, fn: fn}, nil
}

// functionRest parses "(params) { body }".
func (p *parser) functionRest(pos Position, name string) (*funcLit, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var params []string
	for !p.isPunct(")") {
		t := p.cur()
		if t.kind != tokenIdent {
			return nil, p.errorf("expected parameter name, found %s", t)
		}
		p.advance()
		params = append(params, t.text)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &funcLit{pos: pos, name: name, params: params, body: body}, nil
}

func (p *parser) ifStatement() (stmt, error) {
	pos := p.cur().pos
	p.advance() // if
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.statement()
	if err != nil {
		return nil, err
	}
	s := &ifStmt{pos: pos, cond: cond, then: then}
	if p.acceptKeyword("else") {
		e, err := p.statement()
		if err != nil {
			return nil, err
		}
		s.elsE = e
	}
	return s, nil
}

func (p *parser) whileStatement() (stmt, error) {
	pos := p.cur().pos
	p.advance() // while
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &whileStmt{pos: pos, cond: cond, body: body}, nil
}

func (p *parser) forStatement() (stmt, error) {
	pos := p.cur().pos
	p.advance() // for
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}

	// for-of: "for (x of expr)" or "for (let x of expr)".
	save := p.pos
	if s, ok, err := p.tryForOf(pos); err != nil {
		return nil, err
	} else if ok {
		return s, nil
	}
	p.pos = save

	f := &forStmt{pos: pos}
	if !p.isPunct(";") {
		if p.isKeyword("var") || p.isKeyword("let") || p.isKeyword("const") {
			d, err := p.declaration()
			if err != nil {
				return nil, err
			}
			f.init = d
		} else {
			x, err := p.expression()
			if err != nil {
				return nil, err
			}
			f.init = &exprStmt{pos: x.position(), x: x}
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(";") {
		c, err := p.expression()
		if err != nil {
			return nil, err
		}
		f.cond = c
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		x, err := p.expression()
		if err != nil {
			return nil, err
		}
		f.post = x
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	f.body = body
	return f, nil
}

// tryForOf attempts to parse the for-of header; ok=false means the caller
// should rewind and parse a classic for.
func (p *parser) tryForOf(pos Position) (stmt, bool, error) {
	p.acceptKeyword("var")
	p.acceptKeyword("let")
	p.acceptKeyword("const")
	name := p.cur()
	if name.kind != tokenIdent {
		return nil, false, nil
	}
	p.advance()
	if !p.acceptKeyword("of") {
		return nil, false, nil
	}
	iter, err := p.expression()
	if err != nil {
		return nil, false, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, false, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, false, err
	}
	return &forOfStmt{pos: pos, varName: name.text, iter: iter, body: body}, true, nil
}

func (p *parser) tryStatement() (stmt, error) {
	pos := p.cur().pos
	p.advance() // try
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	s := &tryStmt{pos: pos, body: body}
	if p.acceptKeyword("catch") {
		if p.acceptPunct("(") {
			name := p.cur()
			if name.kind != tokenIdent {
				return nil, p.errorf("expected catch variable, found %s", name)
			}
			p.advance()
			s.catchVar = name.text
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		c, err := p.block()
		if err != nil {
			return nil, err
		}
		s.catch = c
	}
	if p.acceptKeyword("finally") {
		f, err := p.block()
		if err != nil {
			return nil, err
		}
		s.finally = f
	}
	if s.catch == nil && s.finally == nil {
		return nil, p.errorf("try requires catch or finally")
	}
	return s, nil
}

func (p *parser) switchStatement() (stmt, error) {
	pos := p.cur().pos
	p.advance() // switch
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	subject, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	sw := &switchStmt{pos: pos, subject: subject}
	seenDefault := false
	for !p.isPunct("}") {
		if p.atEOF() {
			return nil, p.errorf("unterminated switch")
		}
		switch {
		case p.acceptKeyword("case"):
			v, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			body, err := p.caseBody()
			if err != nil {
				return nil, err
			}
			sw.cases = append(sw.cases, switchCase{value: v, body: body})
		case p.acceptKeyword("default"):
			if seenDefault {
				return nil, p.errorf("duplicate default clause")
			}
			seenDefault = true
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			body, err := p.caseBody()
			if err != nil {
				return nil, err
			}
			sw.defaultBody = body
		default:
			return nil, p.errorf("expected case or default, found %s", p.cur())
		}
	}
	p.advance() // }
	return sw, nil
}

// caseBody parses statements until the next case/default label or the
// closing brace.
func (p *parser) caseBody() ([]stmt, error) {
	var body []stmt
	for !p.isPunct("}") && !p.isKeyword("case") && !p.isKeyword("default") {
		if p.atEOF() {
			return nil, p.errorf("unterminated switch case")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		body = append(body, s)
	}
	return body, nil
}

// ---- Expressions (precedence climbing) ----

// binaryPrec maps operators to binding power; higher binds tighter.
var binaryPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3, "===": 3, "!==": 3,
	"<": 4, "<=": 4, ">": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *parser) expression() (expr, error) { return p.assignment() }

func (p *parser) assignment() (expr, error) {
	lhs, err := p.ternary()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "+=", "-=", "*=", "/=", "%="} {
		if p.isPunct(op) {
			pos := p.cur().pos
			if !isAssignable(lhs) {
				return nil, p.errorf("invalid assignment target")
			}
			p.advance()
			rhs, err := p.assignment()
			if err != nil {
				return nil, err
			}
			return &assignExpr{pos: pos, op: op, target: lhs, value: rhs}, nil
		}
	}
	return lhs, nil
}

func isAssignable(e expr) bool {
	switch e.(type) {
	case *identExpr, *memberExpr, *indexExpr:
		return true
	default:
		return false
	}
}

func (p *parser) ternary() (expr, error) {
	cond, err := p.binary(1)
	if err != nil {
		return nil, err
	}
	if !p.isPunct("?") {
		return cond, nil
	}
	pos := p.cur().pos
	p.advance()
	then, err := p.assignment()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	elsE, err := p.assignment()
	if err != nil {
		return nil, err
	}
	return &condExpr{pos: pos, cond: cond, then: then, elsE: elsE}, nil
}

func (p *parser) binary(minPrec int) (expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokenPunct {
			return lhs, nil
		}
		prec, ok := binaryPrec[t.text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.advance()
		rhs, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		op := t.text
		// Treat strict equality as equality: PipeScript has no coercion.
		if op == "===" {
			op = "=="
		}
		if op == "!==" {
			op = "!="
		}
		if op == "&&" || op == "||" {
			lhs = &logicalExpr{pos: t.pos, op: op, x: lhs, y: rhs}
		} else {
			lhs = &binaryExpr{pos: t.pos, op: op, x: lhs, y: rhs}
		}
	}
}

func (p *parser) unary() (expr, error) {
	t := p.cur()
	switch {
	case p.isPunct("-") || p.isPunct("!"):
		p.advance()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{pos: t.pos, op: t.text, x: x}, nil
	case p.isPunct("+"):
		p.advance()
		return p.unary()
	case p.isKeyword("typeof"):
		p.advance()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{pos: t.pos, op: "typeof", x: x}, nil
	case p.isPunct("++") || p.isPunct("--"):
		p.advance()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		if !isAssignable(x) {
			return nil, p.errorf("invalid %s target", t.text)
		}
		return &updateExpr{pos: t.pos, op: t.text, target: x}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (expr, error) {
	x, err := p.callOrMember()
	if err != nil {
		return nil, err
	}
	if p.isPunct("++") || p.isPunct("--") {
		t := p.advance()
		if !isAssignable(x) {
			return nil, p.errorf("invalid %s target", t.text)
		}
		return &updateExpr{pos: t.pos, op: t.text, target: x, postfix: true}, nil
	}
	return x, nil
}

func (p *parser) callOrMember() (expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case p.isPunct("("):
			p.advance()
			var args []expr
			for !p.isPunct(")") {
				a, err := p.assignment()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			x = &callExpr{pos: t.pos, callee: x, args: args}
		case p.isPunct("."):
			p.advance()
			name := p.cur()
			if name.kind != tokenIdent && name.kind != tokenKeyword {
				return nil, p.errorf("expected member name, found %s", name)
			}
			p.advance()
			x = &memberExpr{pos: t.pos, obj: x, name: name.text}
		case p.isPunct("["):
			p.advance()
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &indexExpr{pos: t.pos, obj: x, index: idx}
		default:
			return x, nil
		}
	}
}

func (p *parser) primary() (expr, error) {
	t := p.cur()
	switch t.kind {
	case tokenNumber:
		p.advance()
		return &numberLit{pos: t.pos, value: t.num}, nil
	case tokenString:
		p.advance()
		return &stringLit{pos: t.pos, value: t.text}, nil
	case tokenIdent:
		p.advance()
		return &identExpr{pos: t.pos, name: t.text}, nil
	case tokenKeyword:
		switch t.text {
		case "true", "false":
			p.advance()
			return &boolLit{pos: t.pos, value: t.text == "true"}, nil
		case "null", "undefined":
			p.advance()
			return &nullLit{pos: t.pos}, nil
		case "function":
			p.advance()
			name := ""
			if p.cur().kind == tokenIdent {
				name = p.advance().text
			}
			return p.functionRest(t.pos, name)
		}
	case tokenPunct:
		switch t.text {
		case "(":
			p.advance()
			x, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return x, nil
		case "[":
			p.advance()
			a := &arrayLit{pos: t.pos}
			for !p.isPunct("]") {
				e, err := p.assignment()
				if err != nil {
					return nil, err
				}
				a.elems = append(a.elems, e)
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			return a, nil
		case "{":
			return p.objectLiteral()
		}
	}
	return nil, p.errorf("unexpected %s", t)
}

func (p *parser) objectLiteral() (expr, error) {
	pos := p.cur().pos
	p.advance() // {
	o := &objectLit{pos: pos}
	for !p.isPunct("}") {
		t := p.cur()
		var key string
		switch t.kind {
		case tokenIdent, tokenKeyword, tokenString:
			key = t.text
		case tokenNumber:
			key = t.text
		default:
			return nil, p.errorf("expected object key, found %s", t)
		}
		p.advance()
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		v, err := p.assignment()
		if err != nil {
			return nil, err
		}
		o.fields = append(o.fields, objectField{key: key, value: v})
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	return o, nil
}
