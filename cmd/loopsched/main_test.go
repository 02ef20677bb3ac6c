package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/workload"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, err, buf.String())
	}
	return buf.String()
}

func TestList(t *testing.T) {
	out := runCLI(t, "-list")
	for _, w := range []string{"fig1", "adjoint", "wavefront", "random"} {
		if !strings.Contains(out, w) {
			t.Errorf("-list missing %q:\n%s", w, out)
		}
	}
}

func TestRunFig1WithVerify(t *testing.T) {
	out := runCLI(t, "-workload", "fig1", "-procs", "4", "-scheme", "gss", "-verify")
	for _, w := range []string{"scheme       GSS", "iterations 72", "verify       OK"} {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
}

// TestOverheadsLineSumsToBudget: the overheads line carries the whole
// eq. (1) budget — its six terms sum to P x makespan.
func TestOverheadsLineSumsToBudget(t *testing.T) {
	out := runCLI(t, "-workload", "flat", "-procs", "4", "-scheme", "ss")
	var makespan, o1, o2, o3, disp, body, rest int64
	for _, line := range strings.Split(out, "\n") {
		fmt.Sscanf(line, "makespan %d", &makespan)
		fmt.Sscanf(line, "overheads O1=%d O2=%d O3=%d dispatch=%d body=%d unaccounted=%d",
			&o1, &o2, &o3, &disp, &body, &rest)
	}
	if body == 0 || makespan == 0 {
		t.Fatalf("overheads line missing body= or makespan:\n%s", out)
	}
	if sum := o1 + o2 + o3 + disp + body + rest; sum != 4*makespan {
		t.Errorf("terms sum to %d, want P x makespan = %d:\n%s", sum, 4*makespan, out)
	}
}

func TestJSONOutput(t *testing.T) {
	out := runCLI(t, "-workload", "flat", "-procs", "2", "-json")
	var payload map[string]any
	if err := json.Unmarshal([]byte(out), &payload); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if payload["workload"] != "flat" || payload["procs"] != float64(2) {
		t.Errorf("payload = %v", payload)
	}
	if _, ok := payload["stats"]; !ok {
		t.Error("missing stats in JSON")
	}
}

func TestProgramFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.loop")
	if err := os.WriteFile(path, []byte("doall I = 1..6 { work 10 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, "-file", path, "-procs", "2", "-verify")
	if !strings.Contains(out, "iterations 6") {
		t.Errorf("file run output:\n%s", out)
	}
}

func TestShowProgramAndTablesAndInstr(t *testing.T) {
	out := runCLI(t, "-workload", "fig1", "-show-program", "-show-tables", "-show-instr", "-procs", "2")
	for _, w := range []string{"standardized program", "DEPTH", "DESCRPT_A", "instrumented program"} {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q", w)
		}
	}
}

func TestGanttAndHotspots(t *testing.T) {
	out := runCLI(t, "-workload", "flat", "-procs", "2", "-gantt", "30", "-hotspots", "3")
	if !strings.Contains(out, "P0 ") || !strings.Contains(out, "hot spots") {
		t.Errorf("gantt/hotspot output:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workload", "nope"}, &buf); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run([]string{"-file", "/does/not/exist.loop"}, &buf); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-workload", "flat", "-scheme", "bogus"}, &buf); err == nil {
		t.Error("bad scheme accepted")
	}
}

func TestErrorsListValidValues(t *testing.T) {
	// A mistyped option must tell the user what would have worked.
	doacross := filepath.Join(t.TempDir(), "doacross.loop")
	if err := os.WriteFile(doacross, []byte("doacross(1) W = 1..20 { await; work 1; post }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const notCheckpointable = "checkpointing needs a dynamic scheme (a cursor, not a pre-assignment) and no doacross or manual-post loop"
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "flat", "-scheme", "bogus"}, "valid schemes: ss, sdss, css:K"},
		{[]string{"-workload", "flat", "-engine", "abacus"}, "valid engines: virtual, real"},
		{[]string{"-workload", "flat", "-pool", "heap"}, "valid pools: per-loop, single"},
		{[]string{"-workload", "flat", "-scheme", "static-block", "-checkpoint-after", "5"}, notCheckpointable},
		{[]string{"-file", doacross, "-checkpoint-after", "5"}, notCheckpointable},
	}
	var buf bytes.Buffer
	for _, c := range cases {
		err := run(c.args, &buf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) err = %v, want mention of %q", c.args, err, c.want)
		}
	}
}

func TestSingleListPoolFlag(t *testing.T) {
	out := runCLI(t, "-workload", "flat", "-procs", "2", "-pool", "single-list", "-json")
	var payload map[string]any
	if err := json.Unmarshal([]byte(out), &payload); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if payload["pool"] != "single-list" {
		t.Errorf("pool = %v, want single-list", payload["pool"])
	}
}

func TestListSchemesFromRegistry(t *testing.T) {
	out := runCLI(t, "-list-schemes")
	for _, want := range []string{"ss", "css:K", "tss, tss:F:L", "fac2", "af, af:CV",
		"tfss, tfss:F:L", "auto"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list-schemes output lacks %q:\n%s", want, out)
		}
	}
}

func TestAdaptiveSchemeRuns(t *testing.T) {
	out := runCLI(t, "-workload", "many", "-procs", "4", "-scheme", "auto", "-access", "15")
	if !strings.Contains(out, "scheme       auto") {
		t.Errorf("output lacks the auto scheme line:\n%s", out)
	}
	if !strings.Contains(out, "adaptive     fits") {
		t.Errorf("auto run printed no adaptive trajectory line:\n%s", out)
	}
}

func TestTimeout(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-workload", "flat", "-n", "100000000", "-grain", "1000",
		"-procs", "2", "-timeout", "50ms"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-timeout 50ms expired") {
		t.Errorf("err = %v, want timeout-expired message", err)
	}
}

func TestWorkloadTableComplete(t *testing.T) {
	// Every built-in workload must compile and run at a small size.
	for _, w := range workload.Builtins {
		name := w.Name
		args := []string{"-workload", name, "-procs", "2"}
		if name == "fig1" || name == "random" {
			args = append(args, "-n", "2")
		} else {
			args = append(args, "-n", "8", "-grain", "5")
		}
		out := runCLI(t, args...)
		if !strings.Contains(out, "utilization") {
			t.Errorf("workload %s output:\n%s", name, out)
		}
	}
}

func TestDiagnoseFlagPrintsFlightTail(t *testing.T) {
	out := runCLI(t, "-workload", "flat", "-n", "50", "-procs", "2", "-diagnose")
	for _, want := range []string{"diagnostic dump:", "flight recorder:", "claim"} {
		if !strings.Contains(out, want) {
			t.Errorf("-diagnose output missing %q:\n%s", want, out)
		}
	}
}

func TestCheckpointOutAndResume(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")
	out := runCLI(t, "-workload", "flat", "-n", "200", "-procs", "4", "-scheme", "gss",
		"-checkpoint-after", "3", "-checkpoint-out", ck)
	if !strings.Contains(out, "checkpoint written to "+ck) {
		t.Fatalf("no checkpoint confirmation:\n%s", out)
	}
	wire, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	var payload map[string]any
	if err := json.Unmarshal(wire, &payload); err != nil {
		t.Fatalf("checkpoint file is not JSON: %v", err)
	}
	if _, ok := payload["snapshot"]; !ok {
		t.Fatalf("checkpoint file carries no snapshot: %s", wire)
	}

	resumed := runCLI(t, "-workload", "flat", "-n", "200", "-procs", "4", "-scheme", "gss",
		"-resume", ck)
	if !strings.Contains(resumed, "iterations 200") {
		t.Errorf("resumed run did not finish all iterations:\n%s", resumed)
	}

	// Without -checkpoint-out the checkpoint goes to stdout as JSON.
	inline := runCLI(t, "-workload", "flat", "-n", "200", "-procs", "4", "-scheme", "gss",
		"-checkpoint-after", "3")
	if err := json.Unmarshal([]byte(inline), &payload); err != nil {
		t.Errorf("inline checkpoint output is not JSON: %v\n%s", err, inline)
	}
}

// TestBudgetCheckpointResumes: a run stopped by -budget-iterations fails
// with the resume hint and writes its snapshot to -checkpoint-out, and
// -resume runs exactly the rest: a second budget of the remaining 1 500
// iterations is enough to finish all 2 000.
func TestBudgetCheckpointResumes(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	err := run([]string{"-workload", "flat", "-n", "2000", "-procs", "4",
		"-budget-iterations", "500", "-checkpoint-out", ck}, io.Discard)
	for _, want := range []string{"budget exceeded after 500 iteration(s)", "resume the run with -resume " + ck} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("budget stop = %v, want an error containing %q", err, want)
		}
	}
	resumed := runCLI(t, "-workload", "flat", "-n", "2000", "-procs", "4",
		"-budget-iterations", "1500", "-resume", ck)
	if !strings.Contains(resumed, "iterations 2000") {
		t.Errorf("resumed run did not finish all 2000 iterations:\n%s", resumed)
	}
}

// TestResumeVersion1Checkpoint resumes a checkpoint written in snapshot
// format version 1, which stored barrier counts that restore now derives.
func TestResumeVersion1Checkpoint(t *testing.T) {
	out := runCLI(t, "-file", "../../testdata/checkpoint_v1.loop", "-procs", "4",
		"-resume", "../../testdata/checkpoint_v1.json")
	if !strings.Contains(out, "iterations 128") {
		t.Errorf("resumed version-1 checkpoint did not finish all iterations:\n%s", out)
	}
}

func TestResumeErrorsAreFriendly(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"program":"feedface","snapshot":null}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run([]string{"-workload", "flat", "-n", "50", "-resume", bad}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint-out") {
		t.Errorf("foreign checkpoint err = %v, want pointer at -checkpoint-out", err)
	}
	err = run([]string{"-workload", "flat", "-n", "50", "-scheme", "static-block",
		"-checkpoint-after", "3"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "dynamic scheme") {
		t.Errorf("static scheme err = %v, want checkpointing hint", err)
	}
}

// helpFlags runs `loopsched -help` and parses the usage text the flag
// package writes to stderr into name → "type default".
func helpFlags(t *testing.T) map[string]string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	runErr := run([]string{"-help"}, io.Discard)
	os.Stderr = stderr
	w.Close()
	usage, _ := io.ReadAll(r)
	if !errors.Is(runErr, flag.ErrHelp) {
		t.Fatalf("run(-help) = %v", runErr)
	}
	flags := map[string]string{}
	flagRE := regexp.MustCompile(`(?m)^  -(\S+)(?: (\S+))?\n    \t(.*)$`)
	defaultRE := regexp.MustCompile(`\(default (.*)\)$`)
	for _, m := range flagRE.FindAllStringSubmatch(string(usage), -1) {
		typ, def := m[2], ""
		switch typ {
		case "":
			typ, def = "bool", "false"
		case "int":
			def = "0"
		case "string":
			def = `""` // flag prints no default for an empty string
		}
		if d := defaultRE.FindStringSubmatch(m[3]); d != nil {
			def = strings.Trim(d[1], `"`)
		}
		flags[m[1]] = typ + " " + def
	}
	return flags
}

// TestRunOptionFlagsGolden pins the CLI's run-option flags — derived
// from the repro.Options table — to the names and defaults the
// hand-written list had, plus the six it lacked.
func TestRunOptionFlagsGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "run_option_flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := helpFlags(t)
	n := 0
	for _, line := range strings.Split(string(golden), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n++
		name, want, _ := strings.Cut(line, " ")
		if got[name] != want {
			t.Errorf("-%s: %q, want %q", name, got[name], want)
		}
	}
	if n != 18 {
		t.Errorf("golden lists %d flags, want 18", n)
	}
}

// TestDerivedFlagsReachTheRun: a flag the hand-written list never had
// configures the run.
func TestDerivedFlagsReachTheRun(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-workload", "flat", "-n", "200", "-budget-iterations", "50"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "budget exceeded after 50 iteration") {
		t.Errorf("run with -budget-iterations 50 = %v", err)
	}
	if err := run([]string{"-workload", "flat", "-procs", "4097"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "too many processors") {
		t.Errorf("run with -procs 4097 = %v", err)
	}
}
