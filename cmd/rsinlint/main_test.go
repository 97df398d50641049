package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rsin/internal/lint"
)

func TestSelectAnalyzersDefault(t *testing.T) {
	got, err := selectAnalyzers("")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lint.All()) {
		t.Errorf("empty flag selects %d analyzers, want all %d", len(got), len(lint.All()))
	}
}

func TestSelectAnalyzersSubset(t *testing.T) {
	got, err := selectAnalyzers(" hotalloc , noclock ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "hotalloc" || got[1].Name != "noclock" {
		t.Fatalf("subset selection = %v, want [hotalloc noclock] in flag order", names(got))
	}
}

func TestSelectAnalyzersDedup(t *testing.T) {
	got, err := selectAnalyzers("hotalloc,hotalloc,hotalloc")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("repeated name selected %v, want one instance", names(got))
	}
}

func TestSelectAnalyzersUnknown(t *testing.T) {
	_, err := selectAnalyzers("hotalloc,nosuchcheck")
	if err == nil || !strings.Contains(err.Error(), "nosuchcheck") {
		t.Errorf("unknown name must error and name the offender, got %v", err)
	}
}

func TestSelectAnalyzersEmptySelection(t *testing.T) {
	if _, err := selectAnalyzers(" , ,"); err == nil {
		t.Error("a flag value selecting nothing must error")
	}
}

func names(as []*lint.Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

// runMainEnv makes the re-executed test binary run the command itself,
// so the tests below observe main's real exit status and stderr.
const runMainEnv = "RSINLINT_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runRsinlint re-executes the test binary as the command.
func runRsinlint(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestRejectedInvocations pins every invocation whose flags the chosen
// mode would ignore, every retired analyzer name and an undefined flag
// to exit status 2 with one "rsinlint: ..." line on stderr. Each is
// rejected before any package is loaded, so nothing is written.
func TestRejectedInvocations(t *testing.T) {
	dir := t.TempDir()
	cert := filepath.Join(dir, "c.json")
	dot := filepath.Join(dir, "g.dot")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"certify-out without certify", []string{"-certify-out", cert}},
		{"json with certify", []string{"-certify", "sim.Run", "-certify-out", cert, "-json"}},
		{"analyzers with certify", []string{"-certify", "sim.Run", "-certify-out", cert, "-analyzers", "puredet"}},
		{"callgraph-dot with certify", []string{"-certify", "sim.Run", "-certify-out", cert, "-callgraph-dot", dot}},
		{"json with explain", []string{"-explain", "puredet", "-json"}},
		{"packages with explain", []string{"-explain", "puredet", "./..."}},
		{"retired maporder", []string{"-analyzers", "maporder"}},
		{"retired sharedstate", []string{"-analyzers", "sharedstate"}},
		{"undefined flag", []string{"-bogus"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, msg, err := runRsinlint(tc.args...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("want exit status 2, got err=%v\nstdout:\n%s", err, stdout)
			}
			if !strings.HasPrefix(msg, "rsinlint: ") || strings.Count(msg, "\n") != 1 {
				t.Errorf("want one \"rsinlint: ...\" line on stderr, got %q", msg)
			}
			for _, f := range []string{cert, dot} {
				if _, err := os.Stat(f); err == nil {
					t.Errorf("rejected invocation wrote %s", filepath.Base(f))
				}
			}
		})
	}
}

// TestAcceptedInvocations pins two working forms that load little: an
// analyzer's documentation, and a JSON lint run of two analyzers over
// one clean package (exit 0, empty stderr, no findings).
func TestAcceptedInvocations(t *testing.T) {
	stdout, stderr, err := runRsinlint("-explain", "puredet")
	if err != nil || stderr != "" || !strings.HasPrefix(stdout, "puredet:") {
		t.Errorf("-explain puredet: err=%v stderr=%q stdout=%q", err, stderr, stdout)
	}

	stdout, stderr, err = runRsinlint("-json", "-analyzers", "norand,noclock", "./internal/rng")
	if err != nil || stderr != "" {
		t.Fatalf("-json lint run: err=%v stderr=%q", err, stderr)
	}
	var rep report
	if !json.Valid([]byte(stdout)) || json.Unmarshal([]byte(stdout), &rep) != nil {
		t.Fatalf("-json lint run: stdout is not a JSON report:\n%s", stdout)
	}
	if len(rep.Findings) != 0 {
		t.Errorf("-json lint run: findings %+v, want none", rep.Findings)
	}
}
