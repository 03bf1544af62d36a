package program

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestCompiledArraysHoldNoPointers walks the element types of every array
// a Program compiles into (every slice field but VarNames) and fails if
// any of them holds a pointer, string, slice, map, interface, channel or
// function: the GC must never have to scan a program's instructions or
// expression nodes. It also pins an op at 32 bytes or less.
func TestCompiledArraysHoldNoPointers(t *testing.T) {
	pt := reflect.TypeOf(Program{})
	seen := map[string]bool{}
	for i := 0; i < pt.NumField(); i++ {
		f := pt.Field(i)
		if f.Type.Kind() != reflect.Slice || f.Name == "VarNames" {
			continue
		}
		seen[f.Name] = true
		if path, ok := pointerFree(f.Type.Elem(), f.Name+"[i]"); !ok {
			t.Errorf("Program.%s elements hold %s, which the GC scans", f.Name, path)
		}
	}
	for _, name := range []string{"ops", "nodes"} {
		if !seen[name] {
			t.Errorf("Program has no %s array to check", name)
		}
	}
	if size := unsafe.Sizeof(op{}); size > 32 {
		t.Errorf("an op is %d bytes, want at most 32", size)
	}
	t.Logf("op %d bytes, node %d bytes, label %d bytes", unsafe.Sizeof(op{}), unsafe.Sizeof(node{}), unsafe.Sizeof(label{}))
}

// pointerFree reports whether values of type t hold no pointer the GC
// follows; when one does, it returns the path to the first such part.
func pointerFree(t reflect.Type, path string) (string, bool) {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", true
	case reflect.Array:
		return pointerFree(t.Elem(), path+"[k]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p, ok := pointerFree(t.Field(i).Type, path+"."+t.Field(i).Name); !ok {
				return p, false
			}
		}
		return "", true
	}
	return path + " (" + t.Kind().String() + ")", false
}
