// Package flagtab binds a settings struct to command-line flags: a
// field's flag tag names its flag, its default tag the value an unset
// field takes, and its help tag the usage line. repro.Options and
// loopschedd's serverConfig are both bound through it.
package flagtab

import (
	"flag"
	"fmt"
	"reflect"
	"time"
)

// Walk calls fn, in declaration order, for every field of the struct ptr
// points to that carries a flag tag, recursing into untagged exported
// struct-typed fields. v is the field itself, addressable.
func Walk(ptr any, fn func(name string, tag reflect.StructTag, v reflect.Value)) {
	v := reflect.ValueOf(ptr).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if name := f.Tag.Get("flag"); name != "" {
			fn(name, f.Tag, v.Field(i))
		} else if f.IsExported() && f.Type.Kind() == reflect.Struct {
			Walk(v.Field(i).Addr().Interface(), fn)
		}
	}
}

// Bind registers a flag on fs for every field Walk visits. A field's
// current value is its flag default; a zero one takes its default tag.
// Only stdlib flag kinds are bound (a string kind as a string), so -help
// prints the stdlib's type words and quoting.
func Bind(fs *flag.FlagSet, ptr any) {
	Walk(ptr, func(name string, tag reflect.StructTag, v reflect.Value) {
		help := tag.Get("help")
		switch p := v.Addr().Interface().(type) {
		case *int:
			fs.IntVar(p, name, *p, help)
		case *int64:
			fs.Int64Var(p, name, *p, help)
		case *time.Duration:
			fs.DurationVar(p, name, *p, help)
		case *bool:
			fs.BoolVar(p, name, *p, help)
		default:
			if v.Kind() != reflect.String {
				panic(fmt.Sprintf("flagtab: -%s: no flag binding for %T", name, p))
			}
			s := v.Addr().Convert(reflect.TypeFor[*string]()).Interface().(*string)
			fs.StringVar(s, name, *s, help)
		}
		if def := tag.Get("default"); def != "" && v.IsZero() {
			f := fs.Lookup(name)
			if err := f.Value.Set(def); err != nil {
				panic(fmt.Sprintf("flagtab: -%s: default %q: %v", name, def, err))
			}
			f.DefValue = def
		}
	})
}
