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

	"rsin/internal/obs"
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

// runRsinsim re-executes the test binary as the command.
func runRsinsim(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestRejectedInvocations pins every invalid invocation to a non-zero
// exit with one "rsinsim: ..." line on stderr, nothing on stdout and no
// panic.
func TestRejectedInvocations(t *testing.T) {
	dir := t.TempDir()
	series := filepath.Join(dir, "s.json")
	xbar := "16/4x4x4 XBAR/2"
	sbus := "16/16x1x1 SBUS/2"
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"series-dt zero", []string{"-config", xbar, "-series", series, "-series-dt", "0"}},
		{"series-dt negative", []string{"-config", xbar, "-series", series, "-series-dt", "-1"}},
		{"series-dt NaN", []string{"-config", xbar, "-series", series, "-series-dt", "NaN"}},
		{"series-dt Inf", []string{"-config", xbar, "-series", series, "-series-dt", "+Inf"}},
		{"negative shards", []string{"-config", xbar, "-shards", "-1"}},
		// -metrics is retired: the combinations it was once rejected in
		// must still fail, now as an undefined flag.
		{"shards with metrics", []string{"-config", xbar, "-shards", "2", "-metrics", filepath.Join(dir, "m.json")}},
		{"analytic on XBAR", []string{"-config", xbar, "-analytic"}},
		{"analytic with trace", []string{"-config", sbus, "-analytic", "-trace", filepath.Join(dir, "t.json")}},
		{"analytic with metrics", []string{"-config", sbus, "-analytic", "-metrics", filepath.Join(dir, "m.json")}},
		{"analytic with attr", []string{"-config", sbus, "-analytic", "-attr", filepath.Join(dir, "a.json")}},
		{"analytic with series", []string{"-config", sbus, "-analytic", "-series", series}},
		{"analytic with shards", []string{"-config", sbus, "-analytic", "-shards", "2"}},
		{"analytic with reps", []string{"-config", sbus, "-analytic", "-reps", "4"}},
		{"negative attr-topk", []string{"-config", xbar, "-attr", filepath.Join(dir, "a.json"), "-attr-topk", "-1"}},
		{"removed queue flag", []string{"-config", xbar, "-queue", "heap"}},
		{"removed metrics flag", []string{"-config", xbar, "-metrics", filepath.Join(dir, "m.json")}},
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
		// These used to run: -reps below 1 as one replication, a
		// negative -workers as all CPUs, a negative -lambda at -rho's
		// rate, and -rho 0 printing a delay of 0 ± +Inf.
		{"reps zero", []string{"-config", xbar, "-reps", "0"}},
		{"reps negative", []string{"-config", xbar, "-reps", "-5"}},
		{"workers negative", []string{"-config", xbar, "-workers", "-3"}},
		{"lambda negative", []string{"-config", xbar, "-lambda", "-1"}},
		{"rho zero", []string{"-config", xbar, "-rho", "0"}},
		{"rho negative", []string{"-config", xbar, "-rho", "-0.5"}},
		{"analytic with rho zero", []string{"-config", sbus, "-analytic", "-rho", "0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, msg, err := runRsinsim(tc.args...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("want a non-zero exit, got err=%v", err)
			}
			if strings.Contains(msg, "panic:") {
				t.Fatalf("panicked:\n%s", msg)
			}
			if !strings.HasPrefix(msg, "rsinsim: ") || strings.Count(msg, "\n") != 1 {
				t.Errorf("want one \"rsinsim: ...\" line on stderr, got %q", msg)
			}
			if stdout != "" {
				t.Errorf("rejected invocation wrote to stdout: %q", stdout)
			}
		})
	}
}

// TestAcceptedInvocations pins the working forms: the exact SBUS
// solution, pooled replications, and a sharded run writing every
// observability file.
func TestAcceptedInvocations(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")
	attr := filepath.Join(dir, "a.json")
	series := filepath.Join(dir, "s.json")
	xbar := "16/4x4x4 XBAR/2"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-config", "16/16x1x1 SBUS/2", "-analytic"}, "analytic delay d"},
		{[]string{"-config", xbar, "-samples", "5000", "-reps", "2", "-workers", "2"}, "pooled delay d"},
		{[]string{"-config", xbar, "-samples", "2000", "-shards", "2",
			"-trace", trace, "-attr", attr, "-series", series}, "simulated delay d"},
	} {
		stdout, stderr, err := runRsinsim(tc.args...)
		if err != nil || stderr != "" {
			t.Errorf("rsinsim %v: err=%v stderr=%q", tc.args, err, stderr)
		}
		if !strings.HasPrefix(stdout, "configuration: ") || !strings.Contains(stdout, tc.want) {
			t.Errorf("rsinsim %v: stdout %q lacks %q", tc.args, stdout, tc.want)
		}
	}

	data, err := os.ReadFile(trace)
	if err != nil || !json.Valid(data) {
		t.Errorf("-trace file: err=%v, valid JSON=%v", err, json.Valid(data))
	}
	f, err := os.Open(attr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if runs, err := obs.ReadAttributions(f); err != nil || len(runs) != 1 {
		t.Errorf("-attr file: %d runs, err=%v; want 1 run", len(runs), err)
	}
	g, err := os.Open(series)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if runs, err := obs.ReadSeries(g); err != nil || len(runs) != 1 {
		t.Errorf("-series file: %d runs, err=%v; want 1 run", len(runs), err)
	}
}

// TestCPUProfileSurvivesErrorExits pins both sides of -cpuprofile's
// error handling: an invalid invocation is rejected before the profile
// starts and leaves no file, and a failure after the profile started
// still stops it, leaving a complete gzipped profile.
func TestCPUProfileSurvivesErrorExits(t *testing.T) {
	dir := t.TempDir()
	early := filepath.Join(dir, "early.prof")
	if _, _, err := runRsinsim("-cpuprofile", early, "-config", "16/4x4 XBAR/2"); err == nil {
		t.Fatal("malformed config: want a non-zero exit")
	}
	if _, err := os.Stat(early); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("malformed config wrote a profile (stat err=%v)", err)
	}

	late := filepath.Join(dir, "late.prof")
	_, msg, err := runRsinsim("-cpuprofile", late, "-config", "16/4x4x4 XBAR/2", "-samples", "2000",
		"-attr", filepath.Join(dir, "missing", "a.json"))
	if err == nil || !strings.HasPrefix(msg, "rsinsim: ") || strings.Count(msg, "\n") != 1 {
		t.Fatalf("-attr into a missing directory: err=%v stderr=%q, want one rsinsim: line and a non-zero exit", err, msg)
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
