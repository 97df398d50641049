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
const runMainEnv = "FIGURES_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectedInvocations pins every invalid invocation to a non-zero
// exit with one "figures: ..." line on stderr and no panic. Each is
// rejected before any figure is computed.
func TestRejectedInvocations(t *testing.T) {
	dir := t.TempDir()
	series := filepath.Join(dir, "s.json")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"series-dt zero", []string{"-fig", "7", "-quick", "-series", series, "-series-dt", "0"}},
		{"series-dt negative", []string{"-fig", "7", "-quick", "-series", series, "-series-dt", "-1"}},
		{"series-dt NaN", []string{"-fig", "7", "-quick", "-series", series, "-series-dt", "NaN"}},
		{"series-dt Inf", []string{"-fig", "7", "-quick", "-series", series, "-series-dt", "+Inf"}},
		{"unknown format", []string{"-fig", "7", "-quick", "-format", "bogus"}},
		{"negative shards", []string{"-fig", "7", "-quick", "-shards", "-1"}},
		{"shards with attr", []string{"-fig", "7", "-quick", "-shards", "2", "-attr", filepath.Join(dir, "a.json")}},
		{"unknown figure", []string{"-fig", "bogus"}},
		{"undefined flag", []string{"-fig", "7", "-queue", "heap"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("want a non-zero exit, got err=%v", err)
			}
			msg := stderr.String()
			if strings.Contains(msg, "panic:") {
				t.Fatalf("panicked:\n%s", msg)
			}
			if !strings.HasPrefix(msg, "figures: ") || strings.Count(msg, "\n") != 1 {
				t.Errorf("want one \"figures: ...\" line on stderr, got %q", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected invocation wrote to stdout: %q", stdout.String())
			}
		})
	}
}
