package minilua

import (
	"fmt"
	"math"
	"strconv"
)

// Value is any minilua value: nil, bool, float64, string, *Table,
// *Function, or *Builtin.
type Value any

// Table is the associative container. Integer-keyed entries starting at 1
// form the array part that # measures.
type Table struct {
	m map[Value]Value
	n int // the border: keys 1..n are present and n+1 is absent
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{m: make(map[Value]Value)} }

// Get returns the value for key (nil if absent).
func (t *Table) Get(key Value) Value { return t.m[normKey(key)] }

// Set stores value under key; setting nil removes the key. A store at
// the border's next key extends it past the keys that follow; removing
// a key at or below it cuts it to just below that key.
func (t *Table) Set(key, value Value) {
	k := normKey(key)
	if value == nil {
		delete(t.m, k)
		if f, ok := k.(float64); ok && f >= 1 && f <= float64(t.n) && f == math.Trunc(f) {
			t.n = int(f) - 1
		}
		return
	}
	t.m[k] = value
	if k == Value(float64(t.n+1)) {
		for t.n++; t.m[float64(t.n+1)] != nil; t.n++ {
		}
	}
}

// Len returns the border: the count of consecutive integer keys from 1.
func (t *Table) Len() int { return t.n }

// Append adds value at the end of the array part.
func (t *Table) Append(value Value) { t.Set(float64(t.Len()+1), value) }

// Size returns the number of entries (array + hash parts).
func (t *Table) Size() int { return len(t.m) }

// normKey canonicalizes map keys (ints become float64).
func normKey(key Value) Value {
	switch k := key.(type) {
	case int:
		return float64(k)
	default:
		return key
	}
}

// Function is a user-defined closure.
type Function struct {
	name   string
	params []string
	body   []stmt
	env    *env
}

// Builtin is a Go-implemented function exposed to scripts.
type Builtin struct {
	Name string
	Fn   func(in *Interp, args []Value) (Value, error)
}

// Truthy implements Lua truth: nil and false are false, all else true.
func Truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	default:
		return true
	}
}

// ToString renders a value the way format's %s does.
func ToString(v Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case bool:
		if x {
			return "true"
		}
		return "false"
	case float64:
		if x == float64(int64(x)) && x < 1e15 && x > -1e15 {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	case *Table:
		return fmt.Sprintf("table(%d)", x.Size())
	case *Function:
		if x.name != "" {
			return "function:" + x.name
		}
		return "function"
	case *Builtin:
		return "builtin:" + x.Name
	default:
		return fmt.Sprintf("%v", v)
	}
}

// TypeName returns the Lua type name of v.
func TypeName(v Value) string {
	switch v.(type) {
	case nil:
		return "nil"
	case bool:
		return "boolean"
	case float64:
		return "number"
	case string:
		return "string"
	case *Table:
		return "table"
	case *Function, *Builtin:
		return "function"
	default:
		return "userdata"
	}
}
