package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv makes the re-executed test binary run the command itself,
// so the tests below observe main's real exit status and stderr.
const runMainEnv = "BENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const oneResult = `{"schema": "rsin-bench/1", "go_bench": "X",
 "results": [{"name": "BenchmarkX", "ns_per_op": 1000}]}`

const noResults = `{"schema": "rsin-bench/1", "go_bench": "X", "results": []}`

// TestRejectedInvocations pins each bad gate setting and an undefined
// flag to exit status 2 with one "bench: ..." line on stderr, before
// any benchmark runs: -pkg names a directory that does not exist, so
// reaching `go test` would fail differently, with status 1.
func TestRejectedInvocations(t *testing.T) {
	good := writeBaseline(t, oneResult)
	empty := writeBaseline(t, noResults)
	missing := filepath.Join(t.TempDir(), "no-such-package")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"tolerance NaN", []string{"-baseline", good, "-tolerance", "NaN"}},
		{"tolerance Inf", []string{"-baseline", good, "-tolerance", "+Inf"}},
		{"tolerance negative", []string{"-baseline", good, "-tolerance", "-0.05"}},
		{"empty baseline", []string{"-baseline", empty}},
		{"undefined flag", []string{"-bogus", "-baseline", good}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], append(tc.args, "-pkg", missing)...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("want exit status 2, got err=%v\nstderr:\n%s", err, stderr.String())
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "bench: ") || strings.Count(msg, "\n") != 1 {
				t.Errorf("want one \"bench: ...\" line on stderr, got %q", msg)
			}
		})
	}
}

// TestReadBaselineRejectsEmptyResults: a baseline with no results
// would make the gate pass vacuously ("0 benchmarks within 5%").
func TestReadBaselineRejectsEmptyResults(t *testing.T) {
	if _, err := readBaseline(writeBaseline(t, noResults)); err == nil {
		t.Error("readBaseline accepted a baseline with no results")
	}
	doc, err := readBaseline(writeBaseline(t, oneResult))
	if err != nil || len(doc.Results) != 1 {
		t.Errorf("readBaseline(one result) = %+v, %v", doc, err)
	}
}
