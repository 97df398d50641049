package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
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

// runFigures re-executes the test binary as the command.
func runFigures(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
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
		// These used to run as one replication and as all CPUs.
		{"reps zero", []string{"-fig", "7", "-quick", "-reps", "0"}},
		{"reps negative", []string{"-fig", "7", "-quick", "-reps", "-2"}},
		{"workers negative", []string{"-fig", "7", "-quick", "-workers", "-3"}},
		{"shards with attr", []string{"-fig", "7", "-quick", "-shards", "2", "-attr", filepath.Join(dir, "a.json")}},
		{"negative attr-topk", []string{"-fig", "7", "-quick", "-attr", filepath.Join(dir, "a.json"), "-attr-topk", "-1"}},
		{"unknown figure", []string{"-fig", "bogus"}},
		{"undefined flag", []string{"-fig", "7", "-queue", "heap"}},
		// -metrics repeated the timing line's wall time, workers, jobs
		// and occupancy as JSON; it is retired.
		{"removed metrics flag", []string{"-fig", "11", "-metrics", filepath.Join(dir, "m.json")}},
		// -trace recorded the runner's wall-clock job schedule, while
		// rsinsim -trace records the simulated lifecycle; it is now
		// -job-trace.
		{"renamed trace flag", []string{"-fig", "11", "-trace", filepath.Join(dir, "t.json")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, msg, err := runFigures(tc.args...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("want a non-zero exit, got err=%v", err)
			}
			if strings.Contains(msg, "panic:") {
				t.Fatalf("panicked:\n%s", msg)
			}
			if !strings.HasPrefix(msg, "figures: ") || strings.Count(msg, "\n") != 1 {
				t.Errorf("want one \"figures: ...\" line on stderr, got %q", msg)
			}
			if stdout != "" {
				t.Errorf("rejected invocation wrote to stdout: %q", stdout)
			}
		})
	}
}

// TestAcceptedInvocations pins four working forms: a walkthrough, a
// gate-level table, a simulated figure as CSV, and a simulated figure
// with -job-trace, whose file must be valid JSON. With -timing=false
// nothing reaches stderr.
func TestAcceptedInvocations(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "11"}, "== fig11: Omega-network walkthrough"},
		{[]string{"-fig", "table1"}, "== Table I: truth table of cell in shared buses"},
		{[]string{"-fig", "7", "-quick", "-format", "csv"}, "rho,16/1x16x32 XBAR/1,16/1x16x32 XBAR/1 ±,"},
		{[]string{"-fig", "7", "-quick", "-workers", "2", "-job-trace", trace}, "== fig7:"},
	} {
		args := append(tc.args, "-timing=false")
		stdout, stderr, err := runFigures(args...)
		if err != nil || stderr != "" {
			t.Errorf("figures %v: err=%v stderr=%q", args, err, stderr)
		}
		if !strings.HasPrefix(stdout, tc.want) {
			t.Errorf("figures %v: stdout does not start with %q:\n%s", args, tc.want, stdout)
		}
	}
	if data, err := os.ReadFile(trace); err != nil || !json.Valid(data) {
		t.Errorf("-job-trace file: err=%v, valid JSON=%v", err, json.Valid(data))
	}
}

// TestCPUProfileSurvivesErrorExits pins both sides of -cpuprofile's
// error handling: an unknown -fig name is rejected before the profile
// starts and leaves no file, and a failure after the profile started
// still stops it, leaving a complete gzipped profile.
func TestCPUProfileSurvivesErrorExits(t *testing.T) {
	dir := t.TempDir()
	early := filepath.Join(dir, "early.prof")
	if _, _, err := runFigures("-cpuprofile", early, "-fig", "nope"); err == nil {
		t.Fatal("unknown figure: want a non-zero exit")
	}
	if _, err := os.Stat(early); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("unknown figure wrote a profile (stat err=%v)", err)
	}

	late := filepath.Join(dir, "late.prof")
	_, msg, err := runFigures("-cpuprofile", late, "-fig", "11", "-timing=false",
		"-attr", filepath.Join(dir, "missing", "a.json"))
	if err == nil || !strings.HasPrefix(msg, "figures: ") || strings.Count(msg, "\n") != 1 {
		t.Fatalf("-attr into a missing directory: err=%v stderr=%q, want one figures: line and a non-zero exit", err, msg)
	}
	f, err := os.Open(late)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile does not gunzip: %v", err)
	}
	if data, err := io.ReadAll(zr); err != nil || len(data) == 0 {
		t.Fatalf("profile: %d bytes after gunzip, err=%v", len(data), err)
	}
}
