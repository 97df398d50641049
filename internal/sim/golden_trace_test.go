package sim

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rsin/internal/core"
	"rsin/internal/invariant"
	"rsin/internal/obs"
	"rsin/internal/omega"
	"rsin/internal/queueing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace under testdata/")

// goldenTracePath is the committed event trace (gzipped; traces are
// highly repetitive text) of a p=256 partitioned omega run. p ≥
// calendarAutoP, so Run routes this through the calendar queue: the
// file pins the full observable event stream — every attempt, reject,
// grant, and completion with timestamps — of the large-p code path
// (SoA state, arena, calendar queue, partition hint delegation)
// against accidental drift between commits. The kernel
// differential matrix proves heap/calendar/oracle agree with each other
// within one build; this file proves today's build agrees with the
// build that committed it. Comparison is over the uncompressed bytes,
// so gzip encoder details never matter.
const goldenTracePath = "testdata/golden_trace_p256_omega.txt.gz"

// goldenNet builds the golden configuration's network: four 64-wide
// omega networks, partitioned.
func goldenNet() core.Network {
	subs := make([]core.Network, 4)
	for i := range subs {
		subs[i] = omega.New(64, 2)
	}
	return core.NewPartitioned(subs)
}

// goldenConfig is the golden run's configuration, without a probe.
func goldenConfig() Config {
	return Config{
		Lambda: queueing.LambdaForIntensity(0.7, 256, 2, 1, goldenNet().TotalResources()),
		MuN:    2, MuS: 1,
		Seed: 1983, Warmup: 20, Samples: 30,
	}
}

// goldenTraceBytes renders the golden configuration's trace.
func goldenTraceBytes(t *testing.T) []byte {
	t.Helper()
	tr := obs.NewTrace()
	cfg := goldenConfig()
	cfg.Probe = tr
	if _, err := Run(goldenNet(), cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteTraces(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTraceP256Omega compares the rendered trace byte-for-byte
// against the committed file. Regenerate deliberately with
//
//	go test ./internal/sim -run TestGoldenTraceP256Omega -update
//
// and review the diff like any other golden change.
func TestGoldenTraceP256Omega(t *testing.T) {
	invariant.Enable(false)
	defer invariant.Enable(true)
	got := goldenTraceBytes(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenTracePath), 0o755); err != nil {
			t.Fatal(err)
		}
		var zbuf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&zbuf, gzip.BestCompression)
		if _, err := zw.Write(got); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTracePath, zbuf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes, %d compressed)", goldenTracePath, len(got), zbuf.Len())
		return
	}
	zf, err := os.Open(goldenTracePath)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update to create): %v", err)
	}
	defer zf.Close()
	zr, err := gzip.NewReader(zf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		// Locate the first divergent line for the failure message.
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("trace diverged from golden at line %d:\n got %s\nwant %s",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace length diverged: got %d bytes (%d lines), want %d bytes (%d lines)",
			len(got), len(gl), len(want), len(wl))
	}
}
