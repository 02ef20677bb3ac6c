package repro

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

var updateREADME = flag.Bool("update-readme", false, "rewrite README.md's generated option table")

// libraryOnly are the Options fields that deliberately have no wire name
// and no flag: they hand the caller's process a callback, a trace or a
// diagnostic dump.
var libraryOnly = map[string]bool{
	"Observe": true, "CollectTrace": true, "Diagnostics": true, "FlightRecorder": true,
}

// TestOptionTableComplete: every Options field has decided its surfaces
// — it is in the table (wire name and help) or in the library-only list
// — so adding a field without deciding fails here.
func TestOptionTableComplete(t *testing.T) {
	wires, flags := map[string]string{}, map[string]string{}
	ty := reflect.TypeOf(Options{})
	for i := 0; i < ty.NumField(); i++ {
		f := ty.Field(i)
		wire, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if libraryOnly[f.Name] {
			if wire != "-" || f.Tag.Get("flag") != "" {
				t.Errorf("%s is library-only but has a wire name or a flag", f.Name)
			}
			continue
		}
		if wire == "" || wire == "-" {
			t.Errorf("%s has no wire name and is not in the library-only list", f.Name)
			continue
		}
		if !strings.HasSuffix(f.Tag.Get("json"), ",omitempty") {
			t.Errorf("%s: wire options are omitempty (journal records stay small)", f.Name)
		}
		if f.Tag.Get("help") == "" {
			t.Errorf("%s has no help", f.Name)
		}
		if prev, dup := wires[wire]; dup {
			t.Errorf("wire name %q on both %s and %s", wire, prev, f.Name)
		}
		wires[wire] = f.Name
		if name := f.Tag.Get("flag"); name != "" {
			if prev, dup := flags[name]; dup {
				t.Errorf("flag -%s on both %s and %s", name, prev, f.Name)
			}
			flags[name] = f.Name
		}
	}
	// Help strings are static tags; the value sets they quote are not.
	for field, known := range map[string][]string{"Engine": KnownEngines(), "Pool": KnownPools()} {
		f, _ := ty.FieldByName(field)
		for _, v := range known {
			if !strings.Contains(f.Tag.Get("help"), v) {
				t.Errorf("%s help %q does not mention %q", field, f.Tag.Get("help"), v)
			}
		}
	}
	if ty.NumField() != 25 || len(wires) != 21 || len(flags) != 20 {
		t.Errorf("%d fields, %d wire names, %d flags; want 25, 21, 20",
			ty.NumField(), len(wires), len(flags))
	}
}

// populated returns an Options with every wire field non-zero.
func populated(t *testing.T) Options {
	var o Options
	v := reflect.ValueOf(&o).Elem()
	for i := 0; i < v.NumField(); i++ {
		if libraryOnly[v.Type().Field(i).Name] {
			continue
		}
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString(fmt.Sprint("v", i))
		case reflect.Pointer:
			f.Set(reflect.ValueOf(&Checkpoint{Program: "fp"}))
		default:
			t.Fatalf("%s: unhandled kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	return o
}

func TestOptionsJSONRoundTrip(t *testing.T) {
	want := populated(t)
	wire, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Options
	if err := json.Unmarshal(wire, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the options:\n got %+v\nwant %+v\nwire %s", got, want, wire)
	}
	if wire, _ := json.Marshal(Options{Observe: func(Live) {}, Diagnostics: true}); string(wire) != "{}" {
		t.Errorf("zero wire options marshal to %s, want {}", wire)
	}
}

// TestBindFlags: every flag stores into its field, a preset value is the
// flag's default, and a zero field takes the table's.
func TestBindFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	opts := Options{Procs: 8}
	BindFlags(fs, &opts)
	if opts.Procs != 8 || fs.Lookup("procs").DefValue != "8" {
		t.Errorf("preset Procs: field %d, flag default %s; want 8", opts.Procs, fs.Lookup("procs").DefValue)
	}
	if opts.Scheme != "ss" || opts.Engine != EngineVirtual || opts.AccessCost != 10 || opts.Pool != "per-loop" {
		t.Errorf("table defaults not applied: %+v", opts)
	}
	want := populated(t)
	var args []string
	v := reflect.ValueOf(want)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Tag.Get("flag"); name != "" {
			args = append(args, fmt.Sprintf("-%s=%v", name, v.Field(i).Interface()))
		}
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want.Resume = nil // -resume FILE is a loopsched behaviour, not a derived flag
	if !reflect.DeepEqual(opts, want) {
		t.Errorf("parsed flags:\n got %+v\nwant %+v", opts, want)
	}
}

// TestTableDefaultsAreTheZeroValue: the default column documents what an
// unset option selects, so spelling the defaults out changes nothing.
func TestTableDefaultsAreTheZeroValue(t *testing.T) {
	nest := MustBuild(func(b *B) {
		b.DoallLeaf("L", Const(500), func(e Env, iv IVec, j int64) { e.Work(10 + j%7) })
	})
	var spelled Options
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	BindFlags(fs, &spelled)
	zero, err := Execute(nest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Execute(nest, spelled)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != zero.Makespan || got.Procs != zero.Procs || got.SchemeName != zero.SchemeName ||
		!reflect.DeepEqual(got.Stats, zero.Stats) {
		t.Errorf("spelled-out defaults %+v ran differently: makespan %d vs %d, P %d vs %d",
			spelled, got.Makespan, zero.Makespan, got.Procs, zero.Procs)
	}
}

func TestProcsCeiling(t *testing.T) {
	if err := (Options{Procs: MaxProcs}).Validate(); err != nil {
		t.Errorf("Procs %d: %v", MaxProcs, err)
	}
	if err := (Options{Procs: MaxProcs + 1}).Validate(); !errors.Is(err, ErrBadProcs) {
		t.Errorf("Procs %d: %v, want ErrBadProcs", MaxProcs+1, err)
	}
}

// optionReference renders the table README.md carries between its
// options:begin / options:end markers.
func optionReference() string {
	var sb strings.Builder
	sb.WriteString("| `loopsched` flag | wire name | default | help |\n|---|---|---|---|\n")
	ty := reflect.TypeOf(Options{})
	for i := 0; i < ty.NumField(); i++ {
		f := ty.Field(i)
		if libraryOnly[f.Name] {
			continue
		}
		wire, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		flagName := "—"
		if name := f.Tag.Get("flag"); name != "" {
			flagName = "`-" + name + "`"
		}
		def := f.Tag.Get("default")
		if def == "" {
			switch f.Type.Kind() {
			case reflect.Bool:
				def = "false"
			case reflect.Int, reflect.Int64:
				def = "0"
			case reflect.String:
				def = `""`
			}
		}
		if def != "" {
			def = "`" + def + "`"
		}
		fmt.Fprintf(&sb, "| %s | `%s` | %s | %s |\n", flagName, wire, def, f.Tag.Get("help"))
	}
	return sb.String()
}

// TestREADMEOptionReference regenerates the reference table and fails
// when README.md has drifted from the struct tags; rewrite it with
// `go test -run TestREADMEOptionReference -update-readme .`
func TestREADMEOptionReference(t *testing.T) {
	const begin, end = "<!-- options:begin -->\n", "<!-- options:end -->"
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	i, j := strings.Index(readme, begin), strings.Index(readme, end)
	if i < 0 || j < i {
		t.Fatalf("README.md has no %q … %q block", begin, end)
	}
	i += len(begin)
	want := optionReference()
	if readme[i:j] == want {
		return
	}
	if !*updateREADME {
		t.Fatalf("README.md option table is stale (rerun with -update-readme):\n got:\n%s\nwant:\n%s", readme[i:j], want)
	}
	if err := os.WriteFile("README.md", []byte(readme[:i]+want+readme[j:]), 0o644); err != nil {
		t.Fatal(err)
	}
}
