package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden rsintrace report")

// runMainEnv makes the re-executed test binary run the command itself,
// so the tests below observe main's real exit status and stderr.
const runMainEnv = "RSINTRACE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runRsintrace re-executes the test binary as the command.
func runRsintrace(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestRejectedInvocations pins every invalid invocation to exit status
// 2 with one "rsintrace: ..." line on stderr, nothing on stdout and no
// panic.
func TestRejectedInvocations(t *testing.T) {
	dir := t.TempDir()
	attr := filepath.Join(dir, "a.json")
	writeTestAttr(t, attr, 1.0)
	series := filepath.Join(dir, "s.json")
	writeTestSeries(t, series)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"tol NaN", []string{"diff", "-tol", "NaN", attr, attr}},
		{"tol Inf", []string{"diff", "-tol", "+Inf", attr, attr}},
		{"tol -Inf", []string{"diff", "-tol", "-Inf", attr, attr}},
		{"tol negative", []string{"diff", "-tol", "-1", attr, attr}},
		{"tol before the command", []string{"-tol", "NaN", "diff", attr, attr}},
		{"diff with one file", []string{"diff", attr}},
		{"attr with two files", []string{"attr", attr, attr}},
		{"missing file", []string{"attr", filepath.Join(dir, "missing.json")}},
		{"series file as attr", []string{"attr", series}},
		{"attr file as series", []string{"series", attr}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, msg, err := runRsintrace(tc.args...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("want exit status 2, got err=%v", err)
			}
			if strings.Contains(msg, "panic:") {
				t.Fatalf("panicked:\n%s", msg)
			}
			if !strings.HasPrefix(msg, "rsintrace: ") || strings.Count(msg, "\n") != 1 {
				t.Errorf("want one \"rsintrace: ...\" line on stderr, got %q", msg)
			}
			if stdout != "" {
				t.Errorf("rejected invocation wrote to stdout: %q", stdout)
			}
		})
	}
}

// TestAcceptedInvocations pins the working form of every command: exit
// 0, empty stderr and the expected first line. A negative -k lists
// every request, and a zero -tol passes identical files.
func TestAcceptedInvocations(t *testing.T) {
	dir := t.TempDir()
	attr := filepath.Join(dir, "a.json")
	writeTestAttr(t, attr, 1.0)
	series := filepath.Join(dir, "s.json")
	writeTestSeries(t, series)
	for _, tc := range []struct {
		args  []string
		want  string
		lines int // stdout lines, or 0 to skip the count
	}{
		{[]string{"attr", attr}, "run 0: test run\n", 0},
		{[]string{"attr", "-json", attr}, "{", 0},
		{[]string{"top", "-k", "1", attr}, "run  req ", 2},
		{[]string{"top", "-k", "-1", attr}, "run  req ", 3},
		{[]string{"series", series}, "run 0: test run\n", 0},
		{[]string{"diff", attr, attr}, "run 0: test run\n", 0},
		{[]string{"diff", "-tol", "0", attr, attr}, "run 0: test run\n", 0},
		{[]string{"trace", goldenTrace}, "sim run 0\n", 0},
	} {
		stdout, stderr, err := runRsintrace(tc.args...)
		if err != nil || stderr != "" {
			t.Errorf("rsintrace %v: err=%v stderr=%q", tc.args, err, stderr)
		}
		if !strings.HasPrefix(stdout, tc.want) {
			t.Errorf("rsintrace %v: stdout does not start with %q:\n%s", tc.args, tc.want, stdout)
		}
		if n := strings.Count(stdout, "\n"); tc.lines > 0 && n != tc.lines {
			t.Errorf("rsintrace %v: %d stdout lines, want %d:\n%s", tc.args, n, tc.lines, stdout)
		}
		if tc.want == "{" && !json.Valid([]byte(stdout)) {
			t.Errorf("rsintrace %v: stdout is not valid JSON", tc.args)
		}
	}
}

// goldenTrace is the repository's committed golden trace (the p=256
// partitioned-Omega configuration golden_trace_test.go pins).
const goldenTrace = "../../internal/sim/testdata/golden_trace_p256_omega.txt.gz"

// goldenReport is the committed rsintrace summary of that trace; the
// CI observability job rebuilds it with the real binary and cmps.
const goldenReport = "testdata/golden_trace_report.txt"

// TestTraceReportMatchesGolden pins the trace summarizer's output on
// the golden trace byte for byte: the report derives purely from the
// trace bytes, so it can only change when the trace format, the golden
// configuration, or the summarizer itself changes — all of which should
// be deliberate (-update).
func TestTraceReportMatchesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := runTrace(&buf, goldenTrace); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenReport), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenReport, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenReport, buf.Len())
		return
	}
	want, err := os.ReadFile(goldenReport)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
			goldenReport, buf.Bytes(), want)
	}
}

// TestTraceReportDeterministic renders the report twice and requires
// identical bytes (no map-order leakage in the summarizer).
func TestTraceReportDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := runTrace(&a, goldenTrace); err != nil {
		t.Fatal(err)
	}
	if err := runTrace(&b, goldenTrace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renders of the same trace differ")
	}
}

// TestAttrTopSeriesRoundTrip exercises the attr/top/series/diff paths
// end to end on synthetic documents.
func TestAttrTopSeriesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	attrPath := filepath.Join(dir, "attr.json")
	writeTestAttr(t, attrPath, 1.0)
	seriesPath := filepath.Join(dir, "series.json")
	writeTestSeries(t, seriesPath)

	var buf bytes.Buffer
	if err := runAttr(&buf, attrPath, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"run 0:", "wait", "block", "resp", "blocking breakdown", "path_block"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("attr report missing %q:\n%s", want, buf.Bytes())
		}
	}

	buf.Reset()
	if err := runTop(&buf, attrPath, 3); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != 1+2 {
		t.Fatalf("top -k 3 on a 2-entry table printed %d lines:\n%s", lines, buf.Bytes())
	}

	buf.Reset()
	if err := runSeries(&buf, seriesPath, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"queue_len", "busy_ports", "blocked_waiters", "MSER-5"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("series report missing %q:\n%s", want, buf.Bytes())
		}
	}
}

// TestDiffFlagsRegressions checks both diff verdicts and the regression
// signal.
func TestDiffFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	writeTestAttr(t, a, 1.0)
	writeTestAttr(t, b, 1.0)
	var buf bytes.Buffer
	regressed, err := runDiff(&buf, a, b, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("identical files flagged as regression:\n%s", buf.Bytes())
	}

	writeTestAttr(t, b, 2.0) // all phases doubled
	buf.Reset()
	regressed, err = runDiff(&buf, a, b, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("doubled phases not flagged:\n%s", buf.Bytes())
	}
	if !bytes.Contains(buf.Bytes(), []byte("REGRESSION")) {
		t.Fatalf("diff output missing REGRESSION verdict:\n%s", buf.Bytes())
	}
}
