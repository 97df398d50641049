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
const runMainEnv = "RSINSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectedInvocations pins every invalid invocation to a non-zero
// exit with one "rsinsim: ..." line on stderr and no panic.
func TestRejectedInvocations(t *testing.T) {
	dir := t.TempDir()
	series := filepath.Join(dir, "s.json")
	xbar := "16/4x4x4 XBAR/2"
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"series-dt zero", []string{"-config", xbar, "-series", series, "-series-dt", "0"}},
		{"series-dt negative", []string{"-config", xbar, "-series", series, "-series-dt", "-1"}},
		{"series-dt NaN", []string{"-config", xbar, "-series", series, "-series-dt", "NaN"}},
		{"series-dt Inf", []string{"-config", xbar, "-series", series, "-series-dt", "+Inf"}},
		{"negative shards", []string{"-config", xbar, "-shards", "-1"}},
		{"shards with metrics", []string{"-config", xbar, "-shards", "2", "-metrics", filepath.Join(dir, "m.json")}},
		{"analytic on XBAR", []string{"-config", xbar, "-analytic"}},
		{"removed queue flag", []string{"-config", xbar, "-queue", "heap"}},
		{"malformed config", []string{"-config", "16/4x4 XBAR/2"}},
		{"omega wider than 64", []string{"-config", "128/1x128x128 OMEGA/1"}},
		{"ratio zero", []string{"-config", xbar, "-ratio", "0"}},
		{"ratio negative", []string{"-config", xbar, "-ratio", "-0.1"}},
		{"ratio NaN", []string{"-config", xbar, "-ratio", "NaN"}},
		{"ratio Inf", []string{"-config", xbar, "-ratio", "+Inf"}},
		{"rho NaN", []string{"-config", xbar, "-rho", "NaN"}},
		{"rho Inf", []string{"-config", xbar, "-rho", "+Inf"}},
		{"lambda NaN", []string{"-config", xbar, "-lambda", "NaN"}},
		{"lambda Inf", []string{"-config", xbar, "-lambda", "+Inf"}},
		{"warmup NaN", []string{"-config", xbar, "-warmup", "NaN"}},
		{"warmup Inf", []string{"-config", xbar, "-warmup", "+Inf"}},
		{"warmup -Inf", []string{"-config", xbar, "-warmup", "-Inf"}},
		{"samples zero", []string{"-config", xbar, "-samples", "0"}},
		{"samples negative", []string{"-config", xbar, "-samples", "-5"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("want a non-zero exit, got err=%v", err)
			}
			msg := stderr.String()
			if strings.Contains(msg, "panic:") {
				t.Fatalf("panicked:\n%s", msg)
			}
			if !strings.HasPrefix(msg, "rsinsim: ") || strings.Count(msg, "\n") != 1 {
				t.Errorf("want one \"rsinsim: ...\" line on stderr, got %q", msg)
			}
		})
	}
}
