package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/flagtab"
)

var updateREADME = flag.Bool("update-readme", false, "rewrite README.md's generated daemon settings table")

// derived are the settings-table fields that have no flag: the nested
// cluster table, and what resolve derives from a tagged field (a config
// built in code may set them directly).
var derived = map[string]bool{
	"Cluster": true, "syncPolicy": true, "Tenants": true, "Peers": true, "Faults": true,
}

// TestSettingsTableComplete: every serverConfig and clusterOptions field
// is a setting (flag and help) or in the derived list, so adding a field
// without deciding fails here.
func TestSettingsTableComplete(t *testing.T) {
	flags := map[string]string{}
	for _, ty := range []reflect.Type{reflect.TypeFor[serverConfig](), reflect.TypeFor[clusterOptions]()} {
		for i := 0; i < ty.NumField(); i++ {
			f := ty.Field(i)
			name := f.Tag.Get("flag")
			if derived[f.Name] {
				if name != "" {
					t.Errorf("%s is derived but has a flag", f.Name)
				}
				continue
			}
			if name == "" || f.Tag.Get("help") == "" {
				t.Errorf("%s has no flag or no help and is not in the derived list", f.Name)
				continue
			}
			if prev, dup := flags[name]; dup {
				t.Errorf("flag -%s on both %s and %s", name, prev, f.Name)
			}
			flags[name] = f.Name
		}
	}
	if len(flags) != 21 {
		t.Errorf("%d flags, want 21", len(flags))
	}
}

// TestUsageGolden pins every flag's name, type, default and help text:
// the flag lines of `loopschedd -h` (the first line names the binary).
func TestUsageGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, &buf); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h: %v", err)
	}
	_, got, _ := strings.Cut(buf.String(), "\n")
	want, err := os.ReadFile("testdata/usage.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("loopschedd -h flag lines:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunRejectsBadSettings: resolve refuses, before anything listens, a
// negative setting (naming its flag) and every contradiction between
// settings.
func TestRunRejectsBadSettings(t *testing.T) {
	clustered := []string{"-node", "n1", "-peers", "n1=http://localhost:1", "-cluster-secret", "s"}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-drain-timeout", "-1s"}, "-drain-timeout must not be negative"},
		{append(clustered, "-checkpoint-every", "-5"), "-checkpoint-every must not be negative"},
		{[]string{"-sample", "-1s"}, "-sample must not be negative"},
		{[]string{"-queue-limit", "-1"}, "-queue-limit must not be negative"},
		{append(clustered, "-dead-after", "-1"), "-dead-after must not be negative"},
		{append(clustered, "-probe-interval", "-1s"), "-probe-interval must not be negative"},
		{append(clustered, "-rpc-timeout", "-1s"), "-rpc-timeout must not be negative"},
		{[]string{"-max-body-bytes", "-1"}, "-max-body-bytes must not be negative"},
		{[]string{"-journal-sync", "sometimes"}, "unknown sync policy"},
		{[]string{"-cluster", "c.json", "-peers", "n1=http://localhost:1"}, "mutually exclusive"},
		{[]string{"-peers", "n1=http://localhost:1"}, "-peers needs -node"},
		{[]string{"-node", "n1"}, "-node needs -peers or -cluster"},
		{clustered[:4], "shared secret"},
	}
	for _, c := range cases {
		if err := run(c.args, io.Discard); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run %q: err %v, want %q", c.args, err, c.want)
		}
	}
}

// settingsReference renders the table README.md carries between its
// loopschedd:begin / loopschedd:end markers, in declaration order, with
// each default as `loopschedd -h` has it.
func settingsReference() string {
	var sb strings.Builder
	sb.WriteString("| `loopschedd` flag | default | help |\n|---|---|---|\n")
	var cfg serverConfig
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	flagtab.Bind(fs, &cfg)
	flagtab.Walk(&cfg, func(name string, tag reflect.StructTag, _ reflect.Value) {
		def := fs.Lookup(name).DefValue
		if def == "" {
			def = `""`
		}
		fmt.Fprintf(&sb, "| `-%s` | `%s` | %s |\n", name, def, tag.Get("help"))
	})
	return sb.String()
}

// TestREADMESettingsReference regenerates the daemon settings table and
// fails when README.md has drifted from the struct tags; rewrite it with
// `go test -run TestREADMESettingsReference -update-readme ./cmd/loopschedd`
func TestREADMESettingsReference(t *testing.T) {
	const begin, end, path = "<!-- loopschedd:begin -->\n", "<!-- loopschedd:end -->", "../../README.md"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	i, j := strings.Index(readme, begin), strings.Index(readme, end)
	if i < 0 || j < i {
		t.Fatalf("README.md has no %q … %q block", begin, end)
	}
	i += len(begin)
	want := settingsReference()
	if readme[i:j] == want {
		return
	}
	if !*updateREADME {
		t.Fatalf("README.md settings table is stale (rerun with -update-readme):\n got:\n%s\nwant:\n%s", readme[i:j], want)
	}
	if err := os.WriteFile(path, []byte(readme[:i]+want+readme[j:]), 0o644); err != nil {
		t.Fatal(err)
	}
}
