package script

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"sort"
	"testing"
)

// astNodeTypes lists every concrete node type declared in ast.go (the
// receivers of position()), so a node kind added later without a case in
// inspect fails TestInspectReachesEveryNodeKind.
func astNodeTypes(t *testing.T) []string {
	t.Helper()
	f, err := goparser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != "position" {
			continue
		}
		star := fd.Recv.List[0].Type.(*ast.StarExpr)
		out = append(out, "*script."+star.X.(*ast.Ident).Name)
	}
	if len(out) == 0 {
		t.Fatal("found no node types in ast.go")
	}
	sort.Strings(out)
	return out
}

// inspectAllSrc uses every statement and expression kind, nested inside
// function bodies and every optional part. Every expression slot holds a
// distinct number literal, so a child slot inspect skips shows up as a
// missing number.
const inspectAllSrc = `
var d = 1;
function f(p) {
	if (2) { g(3); } else { h(4); }
	while (5) { break; }
	for (var i = 6; i < 7; i += 8) { continue; }
	for (var x of [9, 10]) { x = 11; }
	try { throw 12; } catch (e) { return 13; } finally { k[14] = {a: 15}; }
	switch (16) { case 17: m(18); default: n(-19); }
	u++;
	return 20 ? 21 : 22 && (23 || o.q == 24);
}
var g = function () { return typeof null + "s" + true + 25; };
`

func TestInspectReachesEveryNodeKind(t *testing.T) {
	prog, err := parse(inspectAllSrc)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	nums := make(map[float64]bool)
	for _, s := range prog.stmts {
		inspect(s, func(n node) bool {
			seen[fmt.Sprintf("%T", n)] = true
			if lit, ok := n.(*numberLit); ok {
				nums[lit.value] = true
			}
			return true
		})
	}
	for _, typ := range astNodeTypes(t) {
		if !seen[typ] {
			t.Errorf("inspect never reached a %s", typ)
		}
	}
	for v := 1.0; v <= 25; v++ {
		if !nums[v] {
			t.Errorf("inspect skipped the slot holding %v", v)
		}
	}
}

func TestInspectPrunesFunctionBodies(t *testing.T) {
	prog, err := parse(`function f() { return 1; } var g = function () { return 2; }; h(3);`)
	if err != nil {
		t.Fatal(err)
	}
	visit := func(prune func(node) bool) []float64 {
		var got []float64
		for _, s := range prog.stmts {
			inspect(s, func(n node) bool {
				if lit, ok := n.(*numberLit); ok {
					got = append(got, lit.value)
				}
				return !prune(n)
			})
		}
		return got
	}
	cases := []struct {
		name  string
		prune func(node) bool
		want  string
	}{
		{"none", func(node) bool { return false }, "[1 2 3]"},
		{"funcLit", func(n node) bool { _, ok := n.(*funcLit); return ok }, "[3]"},
		{"funcDecl", func(n node) bool { _, ok := n.(*funcDecl); return ok }, "[2 3]"},
	}
	for _, c := range cases {
		if got := fmt.Sprint(visit(c.prune)); got != c.want {
			t.Errorf("prune at %s: visited numbers %s, want %s", c.name, got, c.want)
		}
	}
}

func TestInspectSkipsAbsentParts(t *testing.T) {
	// Parsed: no else, no catch, no finally, empty for header, bare return,
	// declaration without initializer, switch without default.
	prog, err := parse(`function f() {
		var a;
		if (a) { a = 1; }
		try { a = 2; } finally { a = 3; }
		try { a = 4; } catch { a = 5; }
		for (;;) { return; }
		switch (a) { case 6: break; }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	// Built directly: every optional part left at its zero value.
	built := []node{
		&ifStmt{cond: &numberLit{}, then: &blockStmt{}},
		&tryStmt{body: &blockStmt{}},
		&forStmt{body: &blockStmt{}},
		&returnStmt{},
		&declStmt{name: "x"},
		&switchStmt{subject: &numberLit{}},
		&funcLit{},
	}
	roots := append([]node{prog.stmts[0]}, built...)
	for _, root := range roots {
		count := 0
		inspect(root, func(n node) bool {
			if n == nil {
				t.Fatalf("inspect passed a nil node under %T", root)
			}
			count++
			return true
		})
		if count == 0 {
			t.Errorf("inspect did not visit the root %T", root)
		}
	}
}
