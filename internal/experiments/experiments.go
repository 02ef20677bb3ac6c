// Package experiments regenerates every figure and analytic result of the
// paper (see DESIGN.md's per-experiment index):
//
//	F1-F8  the structural figures (example program, standardization,
//	       coalescing, macro-dataflow graph, descriptor arrays, task pool,
//	       ENTER activation cases),
//	E1-E11 the quantitative results (eq. 1 and eq. 2/7 validation,
//	       Doacross chunking loss, scheme comparison, pool scaling,
//	       self-scheduling vs OS dispatch, combining vs serialized
//	       fetch-and-add, parallel sections, alternative pools, static
//	       vs dynamic, pool locality).
//
// Each experiment prints its tables to a writer and returns a Verdict:
// machine-checkable shape assertions ("who wins, by roughly what factor,
// where the crossovers fall") that the test suite also enforces.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Verdict is the outcome of one experiment's shape checks.
type Verdict struct {
	// Checks are the individual assertions, in evaluation order.
	Checks []Check
}

// Check is one shape assertion.
type Check struct {
	Name string
	OK   bool
	Note string
}

// OK reports whether every check passed.
func (v Verdict) OK() bool {
	for _, c := range v.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Failures lists the failed checks.
func (v Verdict) Failures() []Check {
	var out []Check
	for _, c := range v.Checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

func (v *Verdict) check(name string, ok bool, format string, args ...any) {
	v.Checks = append(v.Checks, Check{Name: name, OK: ok, Note: fmt.Sprintf(format, args...)})
}

// Write renders the verdict at the end of an experiment's output.
func (v Verdict) Write(w io.Writer) {
	for _, c := range v.Checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check [%s] %s: %s\n", status, c.Name, c.Note)
	}
}

// Experiment is one reproducible unit.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer) (Verdict, error)
}

// All returns every experiment in report order.
func All() []Experiment {
	return []Experiment{
		{"F1", "Fig. 1: the example general parallel nested loop", runF1},
		{"F2", "Fig. 2: standardization of nonperfect nests", runF2},
		{"F3", "Fig. 3: implicit loop coalescing", runF3},
		{"F4", "Fig. 4: macro-dataflow graph", runF4},
		{"F5", "Fig. 5: DEPTH and BOUND arrays", runF5},
		{"F6", "Fig. 6: DESCRPT records", runF6},
		{"F7", "Fig. 7: task pool in action", runF7},
		{"F8", "Fig. 8: ENTER activation cases", runF8},
		{"E1", "Eq. (1): utilization model validation", runE1},
		{"E2", "Eq. (2)/(7): optimal chunk size", runE2},
		{"E3", "Doacross chunking forfeits overlap (Section I claim)", runE3},
		{"E4", "Low-level scheme comparison (GSS/SDSS incorporation)", runE4},
		{"E5", "Parallel linked lists vs single-list pool", runE5},
		{"E6", "Self-scheduling vs OS-involved dispatch", runE6},
		{"E7", "Combining vs serialized fetch-and-add", runE7},
		{"E8", "Extension: PCF parallel sections (vertical parallelism)", runE8},
		{"E9", "Alternative task-pool structures ([24] note)", runE9},
		{"E10", "Static pre-scheduling vs dynamic self-scheduling (Section I motivation)", runE10},
		{"E11", "Memory-hierarchy placement and task-pool locality (Section I motivation)", runE11},
	}
}

// ByID returns the experiment with the given (case-insensitive) ID.
func ByID(id string) (Experiment, bool) {
	id = strings.ToUpper(strings.TrimSpace(id))
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs in report order.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// RunAll executes every experiment, writing a full report; it returns an
// error if any experiment errors or any shape check fails.
func RunAll(w io.Writer) error {
	var failed []string
	for _, e := range All() {
		fmt.Fprintf(w, "\n================================================================\n")
		fmt.Fprintf(w, "%s — %s\n", e.ID, e.Title)
		fmt.Fprintf(w, "================================================================\n\n")
		v, err := e.Run(w)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		v.Write(w)
		if !v.OK() {
			failed = append(failed, e.ID)
		}
	}
	if len(failed) > 0 {
		sort.Strings(failed)
		return fmt.Errorf("experiments with failed shape checks: %s", strings.Join(failed, ", "))
	}
	return nil
}
