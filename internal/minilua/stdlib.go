package minilua

import (
	"fmt"
	"strconv"
	"strings"
)

func argErr(name string, n int, want string, got Value) error {
	return &RuntimeError{Msg: fmt.Sprintf("%s: argument %d: expected %s, got %s", name, n, want, TypeName(got))}
}

func argAt(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return nil
}

// installStdlib binds the standard library into the interpreter globals.
func installStdlib(in *Interp) {
	in.Register("find", func(_ *Interp, args []Value) (Value, error) {
		s, ok := argAt(args, 0).(string)
		if !ok {
			return nil, argErr("find", 1, "string", argAt(args, 0))
		}
		needle, ok := argAt(args, 1).(string)
		if !ok {
			return nil, argErr("find", 2, "string", argAt(args, 1))
		}
		idx := strings.Index(s, needle)
		if idx < 0 {
			return nil, nil
		}
		return float64(idx + 1), nil
	})
	in.Register("lower", func(in *Interp, args []Value) (Value, error) {
		s, ok := argAt(args, 0).(string)
		if !ok {
			return nil, argErr("lower", 1, "string", argAt(args, 0))
		}
		if err := in.burn(0, len(s)); err != nil {
			return nil, err
		}
		return strings.ToLower(s), nil
	})
	in.Register("format", func(in *Interp, args []Value) (Value, error) {
		f, ok := argAt(args, 0).(string)
		if !ok {
			return nil, argErr("format", 1, "string", argAt(args, 0))
		}
		var out strings.Builder
		argi := 1
		for i := 0; i < len(f) && out.Len() <= maxString; i++ {
			if f[i] != '%' || i+1 == len(f) {
				out.WriteByte(f[i])
				continue
			}
			i++
			switch f[i] {
			case '%':
				out.WriteByte('%')
			case 's':
				out.WriteString(ToString(argAt(args, argi)))
				argi++
			case 'd':
				n, _ := argAt(args, argi).(float64)
				out.WriteString(strconv.FormatInt(int64(n), 10))
				argi++
			case 'f':
				n, _ := argAt(args, argi).(float64)
				out.WriteString(strconv.FormatFloat(n, 'f', 2, 64))
				argi++
			default:
				return nil, &RuntimeError{Msg: fmt.Sprintf("format: unsupported verb %%%c", f[i])}
			}
		}
		if err := in.buildString(0, out.Len()); err != nil {
			return nil, err
		}
		return out.String(), nil
	})
}
