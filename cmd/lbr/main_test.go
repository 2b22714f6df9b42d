package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunPrintsLibraryErrorsOnce pins the error line: a library error that
// already carries the "lbr: " prefix is printed with it once, and any
// other error gets it.
func TestRunPrintsLibraryErrorsOnce(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.idx")
	if err := os.WriteFile(old, []byte("LBRSTOR1 and the rest of an old snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-index", old}, `lbr: snapshot format no longer supported: "LBRSTOR1"` + "\n"},
		{[]string{"-data", filepath.Join(dir, "missing.nt")}, "lbr: open " + filepath.Join(dir, "missing.nt") + ": no such file or directory\n"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, strings.NewReader(""), &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", tc.args, code)
		}
		if got := stderr.String(); got != tc.want {
			t.Errorf("%v: stderr %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestRunQueriesAndReportsUsage runs a query end to end through run, and
// checks a missing -data/-index is a usage error (exit 2).
func TestRunQueriesAndReportsUsage(t *testing.T) {
	nt := filepath.Join(t.TempDir(), "g.nt")
	if err := os.WriteFile(nt, []byte("<s> <p> <o> .\n<s> <q> \"v\" .\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-data", nt, "-workers", "1", "-query", "SELECT * WHERE { ?s <p> ?o . OPTIONAL { ?s <r> ?x } }"},
		strings.NewReader(""), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if want := "?o\t?s\t?x\n<o>\t<s>\tNULL\n"; stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
	stderr.Reset()
	if code := run(nil, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("no -data or -index: exit %d, want 2", code)
	}
	if !strings.HasPrefix(stderr.String(), "lbr: -data or -index is required\n") {
		t.Errorf("usage error printed %q", stderr.String())
	}
}
