package script

import (
	"sort"
	"strings"
	"sync"
)

// pipetype: interprocedural event-shape inference for PipeScript modules.
//
// The pass infers, per module, (a) the produced shape of every payload the
// module passes to call_module — a lattice of object-field maps, array
// element shapes and scalar kinds, widened at joins and loops — and (b) the
// consumed shape of the event_received handler: which message fields it
// reads and with what kind expectations. internal/core cross-checks these
// along every DAG edge of a pipeline (PV015–PV017); the script layer itself
// reports PV018 when an emitted payload degrades to top (unbounded dynamic
// construction), so downstream edge checks never false-positive.
//
// Design mirrors pipecost (cost.go): the same top-level function table
// (last declaration wins, matching the loader), memoized DFS with in-
// progress states for recursion, and a closed soundness loop — the runtime
// ShapeRecorder observes actual payloads per edge and shape_soundness_test
// asserts inferred ⊇ observed for every shipped module.

// ---- kind lattice ----

// KindSet is a bitset of PipeScript runtime kinds. The zero value means
// "no constraint" on the consumed side and "nothing known" on shapes.
type KindSet uint16

const (
	KindNull KindSet = 1 << iota
	KindBool
	KindNumber
	KindString
	KindObject
	KindArray
	KindFunction
)

func (k KindSet) String() string {
	if k == 0 {
		return "any"
	}
	var parts []string
	for _, e := range []struct {
		bit  KindSet
		name string
	}{
		{KindNull, "null"}, {KindBool, "bool"}, {KindNumber, "number"},
		{KindString, "string"}, {KindObject, "object"}, {KindArray, "array"},
		{KindFunction, "function"},
	} {
		if k&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	return strings.Join(parts, "|")
}

// kindsFromType translates a signature Param.Type string ("string|array")
// into a KindSet; "any", "" or an unknown token yield 0 (no constraint).
func kindsFromType(t string) KindSet {
	var k KindSet
	for _, tok := range strings.Split(t, "|") {
		switch strings.TrimSpace(tok) {
		case "null":
			k |= KindNull
		case "bool", "boolean":
			k |= KindBool
		case "number":
			k |= KindNumber
		case "string":
			k |= KindString
		case "object":
			k |= KindObject
		case "array":
			k |= KindArray
		case "function":
			k |= KindFunction
		default:
			return 0
		}
	}
	return k
}

// ---- shape lattice ----

// maxShapeDepth caps structural nesting; anything deeper widens to top.
const maxShapeDepth = 4

// maxEnvPasses caps the flow-insensitive fixpoint; if a handler's local
// environment has not stabilized by then, every local widens to top so the
// result stays an over-approximation.
const maxEnvPasses = 8

// Shape is one point of the event-shape lattice. A nil *Shape is bottom
// (nothing ever flows here); Top subsumes everything. For object kinds,
// Fields is a may-union of the fields seen on any path; Open means the
// field set is inexact (computed keys were written), so absent entries say
// nothing. For array kinds Elem is the join of all element shapes (nil
// when only empty arrays were seen). Shapes are immutable after
// construction — Join always allocates.
type Shape struct {
	Top    bool
	Kinds  KindSet
	Fields map[string]*Shape
	Open   bool
	Elem   *Shape
}

func topShape() *Shape           { return &Shape{Top: true} }
func kindShape(k KindSet) *Shape { return &Shape{Kinds: k} }

// IsTop reports whether the shape is the lattice top.
func (s *Shape) IsTop() bool { return s != nil && s.Top }

// Join returns the least upper bound of two shapes. Either side may be nil
// (bottom). The result shares substructure with the inputs; shapes must be
// treated as immutable.
func (s *Shape) Join(o *Shape) *Shape { return joinDepth(s, o, 0) }

func joinDepth(a, b *Shape, depth int) *Shape {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.Top || b.Top || depth > maxShapeDepth {
		return topShape()
	}
	out := &Shape{Kinds: a.Kinds | b.Kinds, Open: a.Open || b.Open}
	if len(a.Fields)+len(b.Fields) > 0 {
		out.Fields = make(map[string]*Shape, len(a.Fields)+len(b.Fields))
		for f, fs := range a.Fields {
			out.Fields[f] = fs
		}
		for f, fs := range b.Fields {
			out.Fields[f] = joinDepth(out.Fields[f], fs, depth+1)
		}
	}
	out.Elem = joinDepth(a.Elem, b.Elem, depth+1)
	return out
}

// Contains reports whether every value described by o is also described by
// s — the soundness relation the runtime recorder checks (inferred ⊇
// observed).
func (s *Shape) Contains(o *Shape) bool { return containsDepth(s, o, 0) }

func containsDepth(a, b *Shape, depth int) bool {
	if b == nil {
		return true
	}
	if a == nil {
		return false
	}
	if a.Top {
		return true
	}
	if b.Top {
		return false
	}
	if depth > maxShapeDepth {
		return true
	}
	if b.Kinds&^a.Kinds != 0 {
		return false
	}
	if b.Kinds&KindObject != 0 {
		if b.Open && !a.Open {
			return false
		}
		for f, bf := range b.Fields {
			af, ok := a.Fields[f]
			if !ok {
				if !a.Open {
					return false
				}
				continue
			}
			if !containsDepth(af, bf, depth+1) {
				return false
			}
		}
	}
	if b.Kinds&KindArray != 0 && b.Elem != nil {
		if a.Elem == nil || !containsDepth(a.Elem, b.Elem, depth+1) {
			return false
		}
	}
	return true
}

// String renders the shape deterministically (fields sorted); the fixpoint
// uses string equality to detect stabilization, so the rendering must
// reflect every component.
func (s *Shape) String() string {
	if s == nil {
		return "none"
	}
	if s.Top {
		return "any"
	}
	var parts []string
	if s.Kinds&KindNull != 0 {
		parts = append(parts, "null")
	}
	if s.Kinds&KindBool != 0 {
		parts = append(parts, "bool")
	}
	if s.Kinds&KindNumber != 0 {
		parts = append(parts, "number")
	}
	if s.Kinds&KindString != 0 {
		parts = append(parts, "string")
	}
	if s.Kinds&KindObject != 0 {
		keys := make([]string, 0, len(s.Fields))
		for f := range s.Fields {
			keys = append(keys, f)
		}
		sort.Strings(keys)
		var fs []string
		for _, f := range keys {
			fs = append(fs, f+": "+s.Fields[f].String())
		}
		if s.Open {
			fs = append(fs, "...")
		}
		parts = append(parts, "object{"+strings.Join(fs, ", ")+"}")
	}
	if s.Kinds&KindArray != 0 {
		if s.Elem == nil {
			parts = append(parts, "array[]")
		} else {
			parts = append(parts, "array["+s.Elem.String()+"]")
		}
	}
	if s.Kinds&KindFunction != 0 {
		parts = append(parts, "function")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// ---- runtime observation ----

// ShapeOf computes the exact (closed) shape of a runtime value, capped at
// maxShapeDepth like the static side.
func ShapeOf(v Value) *Shape { return shapeOfValue(v, 0) }

func shapeOfValue(v Value, depth int) *Shape {
	if depth > maxShapeDepth {
		return topShape()
	}
	switch x := v.(type) {
	case nil:
		return kindShape(KindNull)
	case bool:
		return kindShape(KindBool)
	case float64:
		return kindShape(KindNumber)
	case string:
		return kindShape(KindString)
	case *Array:
		s := &Shape{Kinds: KindArray}
		for _, e := range x.Elems {
			s.Elem = joinDepth(s.Elem, shapeOfValue(e, depth+1), depth+1)
		}
		return s
	case *Object:
		s := &Shape{Kinds: KindObject, Fields: make(map[string]*Shape, len(x.Fields))}
		for k, e := range x.Fields {
			s.Fields[k] = shapeOfValue(e, depth+1)
		}
		return s
	case *Function, HostFunc:
		return kindShape(KindFunction)
	default:
		return topShape()
	}
}

// ShapeRecorder accumulates observed payload shapes per edge key, joining
// as it goes. Safe for concurrent use — module event loops observe from
// their own goroutines.
type ShapeRecorder struct {
	mu    sync.Mutex
	edges map[string]*Shape
}

// NewShapeRecorder returns an empty recorder.
func NewShapeRecorder() *ShapeRecorder { return &ShapeRecorder{edges: make(map[string]*Shape)} }

// Observe joins the shape of payload into the edge's accumulated shape.
func (r *ShapeRecorder) Observe(edge string, payload Value) {
	s := ShapeOf(payload)
	r.mu.Lock()
	r.edges[edge] = r.edges[edge].Join(s)
	r.mu.Unlock()
}

// Shape returns the accumulated shape for an edge (nil if never observed).
func (r *ShapeRecorder) Shape(edge string) *Shape {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.edges[edge]
}

// Edges returns the observed edge keys, sorted.
func (r *ShapeRecorder) Edges() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.edges))
	for e := range r.edges {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// ---- report ----

// EmitSite is one call_module call site. Target is "" when the module name
// is computed at runtime.
type EmitSite struct {
	Target  string
	Pos     Position
	Payload *Shape
}

// FieldUse records one consumed message field: where it is first read and
// the kinds the uses require (0 = any use is fine).
type FieldUse struct {
	Pos   Position
	Kinds KindSet
}

// ConsumedShape describes what the event_received handler reads from its
// message. Dynamic means the handler also consumes the message wholesale
// (iterates it, re-emits it, hands it to an opaque callee), so Fields is a
// lower bound rather than the full story.
type ConsumedShape struct {
	HasHandler bool
	Dynamic    bool
	Fields     map[string]FieldUse
}

// ShapeReport is the pipetype result for one module.
type ShapeReport struct {
	// Emits joins, per literal call_module target, every payload shape
	// emitted to it.
	Emits map[string]*Shape
	// EmitSites lists each call_module site in source order.
	EmitSites []EmitSite
	// DynamicEmit joins the payloads of sites whose target is computed at
	// runtime; edge checking folds it into every declared edge.
	DynamicEmit *Shape
	// Consumed describes the event_received handler's reads.
	Consumed ConsumedShape
}

// AnalyzeShapes runs only the pipetype shape inference over a module
// source. An unparseable source yields a zero report; deploy-time analysis
// rejects it separately (PV000).
func AnalyzeShapes(src string) ShapeReport {
	prog, err := parse(src)
	if err != nil {
		return ShapeReport{}
	}
	rep, _ := shapePass(prog, CallSignatures(), nil)
	return rep
}

// builtinReturnKinds maps builtins with statically known result kinds;
// anything unlisted returns top.
var builtinReturnKinds = map[string]KindSet{
	"len": KindNumber, "num": KindNumber, "now_ms": KindNumber,
	"abs": KindNumber, "floor": KindNumber, "ceil": KindNumber,
	"round": KindNumber, "sqrt": KindNumber, "exp": KindNumber,
	"sin": KindNumber, "cos": KindNumber, "atan2": KindNumber,
	"pow": KindNumber, "min": KindNumber, "max": KindNumber,
	"index_of": KindNumber,
	"str":      KindString, "substr": KindString, "join": KindString,
	"upper": KindString, "lower": KindString, "trim": KindString,
	"device_name": KindString, "json_encode": KindString,
	"is_nan": KindBool, "has": KindBool, "contains": KindBool,
	"starts_with": KindBool, "ends_with": KindBool,
	"keys": KindArray, "values": KindArray, "split": KindArray,
	"range": KindArray, "concat": KindArray, "reverse": KindArray,
	"sort":   KindArray,
	"slice":  KindArray | KindString,
	"metric": KindNull, "frame_done": KindNull,
}
