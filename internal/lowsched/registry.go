package lowsched

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// This file is the scheme registry: the single self-describing table of
// every low-level scheme the package (and its extensions) can construct.
//
// Before the registry there were three hand-maintained scheme tables —
// the Parse switch here, KnownSchemes() in the repro package, and the
// CLI help strings — which drifted independently (the PR 3 PoolNames bug
// was exactly this failure mode on the pool axis). Now a scheme is one
// Register call carrying its name, aliases, parameter spec, help line
// and constructor; Parse, KnownSchemes, and the CLI help text all derive
// from the same entry, so a scheme cannot be parseable but undocumented
// or vice versa.

// SchemeDef is one registry entry: everything the parser, the help text
// and the option validators need to know about a scheme.
type SchemeDef struct {
	// Name is the canonical specification name, lowercase, colon-free
	// (e.g. "css", "static-block").
	Name string
	// Aliases are alternative accepted names (e.g. "factoring" for fsc).
	Aliases []string
	// Params are the ordered parameter names of the ":"-separated
	// specification form, conventionally uppercase single letters or
	// short words (CSS: ["K"], TSS: ["F", "L"]).
	Params []string
	// ParamsOptional reports that the bare form (no parameters) is also
	// accepted, with scheme-chosen defaults (TSS: "tss" and "tss:F:L").
	ParamsOptional bool
	// Help is a one-line description for CLI help text.
	Help string
	// New constructs the scheme. args is empty for the bare form and has
	// len(Params) entries for the parameterized form; New validates
	// parameter ranges and returns a descriptive error on violation.
	New func(args []int64) (Scheme, error)
}

// Forms returns the accepted specification forms of this entry under one
// name: the bare name (when legal) and the parameterized form (when one
// exists), e.g. ["tss", "tss:F:L"] or ["css:K"].
func (d SchemeDef) forms(name string) []string {
	var out []string
	if len(d.Params) == 0 || d.ParamsOptional {
		out = append(out, name)
	}
	if len(d.Params) > 0 {
		out = append(out, name+":"+strings.Join(d.Params, ":"))
	}
	return out
}

// Forms returns the accepted specification forms under the canonical
// name (see Specs for alias forms too).
func (d SchemeDef) Forms() []string { return d.forms(d.Name) }

var (
	regMu    sync.RWMutex
	registry []SchemeDef
	regIndex = map[string]int{} // name and every alias -> registry slot
)

// Register adds a scheme to the registry. It is called from package
// init functions (the built-ins below; extension packages such as the
// adaptive policy register themselves the same way) and panics on an
// invalid or conflicting definition — a programming error, not input.
func Register(def SchemeDef) {
	if def.Name == "" || def.Name != strings.ToLower(def.Name) || strings.Contains(def.Name, ":") {
		panic(fmt.Sprintf("lowsched: invalid scheme name %q", def.Name))
	}
	if def.New == nil {
		panic(fmt.Sprintf("lowsched: scheme %q registered without a constructor", def.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	for _, n := range append([]string{def.Name}, def.Aliases...) {
		if _, dup := regIndex[n]; dup {
			panic(fmt.Sprintf("lowsched: scheme name %q registered twice", n))
		}
	}
	registry = append(registry, def)
	for _, n := range append([]string{def.Name}, def.Aliases...) {
		regIndex[n] = len(registry) - 1
	}
}

// Defs returns the registered scheme definitions in registration order
// (built-ins first, extensions after), copied so callers cannot mutate
// the registry.
func Defs() []SchemeDef {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]SchemeDef, len(registry))
	copy(out, registry)
	return out
}

// Specs returns every accepted specification form of every registered
// scheme — canonical names first, alias forms after, uppercase letters
// standing for integer parameters. This is the single source of the
// user-facing scheme list (repro.KnownSchemes, CLI help).
func Specs() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []string
	for _, d := range registry {
		out = append(out, d.Forms()...)
	}
	for _, d := range registry {
		for _, a := range d.Aliases {
			out = append(out, d.forms(a)...)
		}
	}
	return out
}

// lookup resolves a (lowercased) name or alias to its definition.
func lookup(name string) (SchemeDef, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	i, ok := regIndex[name]
	if !ok {
		return SchemeDef{}, false
	}
	return registry[i], true
}

// Parse constructs a Scheme from a specification string, for CLI tools
// and experiment configuration. Accepted forms are exactly the
// registry's (see Specs): a registered name or alias, optionally
// followed by ":"-separated integer parameters, case-insensitive —
// e.g. "ss", "css:4", "tss:100:1", "factoring".
func Parse(spec string) (Scheme, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(spec)), ":")
	def, ok := lookup(parts[0])
	if !ok {
		return nil, fmt.Errorf("lowsched: unknown scheme %q", spec)
	}
	args := parts[1:]
	switch {
	case len(args) == 0:
		if len(def.Params) > 0 && !def.ParamsOptional {
			return nil, fmt.Errorf("lowsched: %s requires parameters (%s): %q",
				def.Name, strings.Join(def.Forms(), ", "), spec)
		}
		return def.New(nil)
	case len(args) != len(def.Params):
		return nil, fmt.Errorf("lowsched: %s takes %s: %q",
			def.Name, describeArity(def), spec)
	}
	vals := make([]int64, len(args))
	for i, a := range args {
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("lowsched: bad parameter %q in %q", a, spec)
		}
		vals[i] = v
	}
	return def.New(vals)
}

// describeArity renders a definition's accepted parameter counts for
// error messages ("no parameters", "zero or two parameters", ...).
func describeArity(def SchemeDef) string {
	counts := map[int]string{0: "zero", 1: "one", 2: "two", 3: "three"}
	n, ok := counts[len(def.Params)]
	if !ok {
		n = strconv.Itoa(len(def.Params))
	}
	if len(def.Params) == 0 {
		return "no parameters"
	}
	if def.ParamsOptional {
		return fmt.Sprintf("zero or %s parameters", n)
	}
	if len(def.Params) == 1 {
		return fmt.Sprintf("%s parameter", n)
	}
	return fmt.Sprintf("%s parameters", n)
}

// MustParse is Parse that panics on error, for statically correct specs.
func MustParse(spec string) Scheme {
	s, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// noArgs adapts a parameterless scheme value to the registry's
// constructor signature.
func noArgs(s Scheme) func([]int64) (Scheme, error) {
	return func([]int64) (Scheme, error) { return s, nil }
}

// The built-in scheme roster. Each entry's Help line doubles as the CLI
// documentation, so it names the paper-level idea, not the Go type.
func init() {
	Register(SchemeDef{
		Name: "ss",
		Help: "pure self-scheduling: one iteration per fetch-and-increment",
		New:  noArgs(SS{}),
	})
	Register(SchemeDef{
		Name: "sdss",
		Help: "shortest-delay self-scheduling (= ss assignment order; for Doacross)",
		New:  noArgs(SDSS{}),
	})
	Register(SchemeDef{
		Name:   "css",
		Params: []string{"K"},
		Help:   "chunk self-scheduling: fixed chunks of K iterations per fetch",
		New: func(args []int64) (Scheme, error) {
			if args[0] < 1 || args[0] > MaxClaimAdd {
				return nil, fmt.Errorf("lowsched: css chunk %d outside [1,%d]", args[0], MaxClaimAdd)
			}
			return CSS{K: args[0]}, nil
		},
	})
	Register(SchemeDef{
		Name: "gss",
		Help: "guided self-scheduling: chunk = ceil(remaining/P)",
		New:  noArgs(GSS{}),
	})
	Register(SchemeDef{
		Name:           "tss",
		Params:         []string{"F", "L"},
		ParamsOptional: true,
		Help:           "trapezoid self-scheduling: chunks decrease linearly F..L (default N/2P..1)",
		New: func(args []int64) (Scheme, error) {
			if len(args) == 0 {
				return TSS{}, nil
			}
			f, l := args[0], args[1]
			if l < 1 || f < l {
				return nil, fmt.Errorf("lowsched: tss requires f >= l >= 1 (got %d:%d)", f, l)
			}
			return TSS{First: f, Last: l}, nil
		},
	})
	Register(SchemeDef{
		Name:    "fsc",
		Aliases: []string{"factoring"},
		Help:    "factoring: rounds of P equal chunks, half the remainder per round",
		New:     noArgs(FSC{}),
	})
	Register(SchemeDef{
		Name: "fac2",
		Help: "factoring-2: every claim takes ceil(remaining/2P), no round barrier",
		New:  noArgs(FAC2{}),
	})
	Register(SchemeDef{
		Name:           "af",
		Params:         []string{"CV"},
		ParamsOptional: true,
		Help:           "adaptive factoring: chunk shrinks with iteration-time variability CV%",
		New: func(args []int64) (Scheme, error) {
			if len(args) == 0 {
				return AF{}, nil
			}
			if args[0] < 0 {
				return nil, fmt.Errorf("lowsched: af variability %d%% < 0", args[0])
			}
			return AF{CV: args[0]}, nil
		},
	})
	Register(SchemeDef{
		Name:           "tfss",
		Params:         []string{"F", "L"},
		ParamsOptional: true,
		Help:           "trapezoid factoring: TSS's linear decrease applied per round of P chunks",
		New: func(args []int64) (Scheme, error) {
			if len(args) == 0 {
				return TFSS{}, nil
			}
			f, l := args[0], args[1]
			if l < 1 || f < l {
				return nil, fmt.Errorf("lowsched: tfss requires f >= l >= 1 (got %d:%d)", f, l)
			}
			return TFSS{First: f, Last: l}, nil
		},
	})
	Register(SchemeDef{
		Name:    "afs",
		Aliases: []string{"affinity"},
		Help:    "affinity scheduling: per-processor blocks, guided local claims, stealing",
		New:     noArgs(AFS{}),
	})
	Register(SchemeDef{
		Name: "static-block",
		Help: "compile-time block pre-assignment (baseline; no dynamic balancing)",
		New:  noArgs(StaticBlock{}),
	})
	Register(SchemeDef{
		Name: "static-cyclic",
		Help: "compile-time cyclic pre-assignment (baseline; no dynamic balancing)",
		New:  noArgs(StaticCyclic{}),
	})
}
