package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the re-executed test binary run the command itself,
// so the tests below observe main's real exit status and output.
const runMainEnv = "ADVISOR_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runAdvisor re-executes the test binary as the command.
func runAdvisor(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestRejectedInvocations pins every meaningless invocation to exit
// status 1 with one "advisor: ..." line on stderr and nothing on
// stdout.
func TestRejectedInvocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"ratio NaN", []string{"-cost", "cheap", "-ratio", "NaN"}},
		{"ratio Inf", []string{"-cost", "cheap", "-ratio", "+Inf"}},
		{"ratio negative", []string{"-cost", "comparable", "-ratio", "-1"}},
		{"ratio zero", []string{"-cost", "comparable", "-ratio", "0"}},
		{"ratio without cost", []string{"-ratio", "5"}},
		{"stray argument", []string{"extra", "-cost", "cheap"}},
		{"undefined flag", []string{"-costs", "cheap"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, err := runAdvisor(tc.args...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("want exit status 1, got err=%v\nstdout:\n%s", err, stdout)
			}
			if stdout != "" {
				t.Errorf("rejected invocation printed to stdout:\n%s", stdout)
			}
			if !strings.HasPrefix(stderr, "advisor: ") || strings.Count(stderr, "\n") != 1 {
				t.Errorf("want one \"advisor: ...\" line on stderr, got %q", stderr)
			}
		})
	}
}

// TestAcceptedInvocations pins the two working forms: the whole table,
// and one recommendation on each side of μs/μn = 1.
func TestAcceptedInvocations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "== Table II: selection of suitable RSIN =="},
		{[]string{"-cost", "cheap", "-ratio", "0.2"}, "use a single multistage network"},
		{[]string{"-cost", "cheap", "-ratio", "5"}, "use a single crossbar network"},
	} {
		stdout, stderr, err := runAdvisor(tc.args...)
		if err != nil || stderr != "" {
			t.Errorf("advisor %v: err=%v stderr=%q", tc.args, err, stderr)
		}
		if !strings.Contains(stdout, tc.want) {
			t.Errorf("advisor %v: stdout %q lacks %q", tc.args, stdout, tc.want)
		}
	}
}
