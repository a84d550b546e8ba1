package graph

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestEdgeLayout pins the edge slab's layout: an Edge is its counters,
// exactly the bytes MemBytes charges per directed edge, and neither Edge
// nor Counters holds a pointer, so the slab — a window's largest array —
// is never scanned by the GC.
func TestEdgeLayout(t *testing.T) {
	if got := unsafe.Sizeof(Edge{}); got != edgeSize {
		t.Errorf("unsafe.Sizeof(Edge{}) = %d, MemBytes charges %d per edge", got, edgeSize)
	}
	if p := pointerAt(reflect.TypeFor[Edge]()); p != "" {
		t.Errorf("graph.Edge holds a pointer at %s", p)
	}
}

// pointerAt names where a value of typ holds a pointer the GC must
// follow, or returns "" when it holds none.
func pointerAt(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Array:
		if typ.Len() > 0 {
			if p := pointerAt(typ.Elem()); p != "" {
				return "[i]" + p
			}
		}
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p := pointerAt(f.Type); p != "" {
				return "." + f.Name + p
			}
		}
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.Slice, reflect.String:
		return " (" + typ.String() + ")"
	}
	return ""
}
