package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"latlab/internal/campaign"
)

// runCLI invokes the campaign CLI in-process, failing the test on a
// non-zero exit.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out, errBuf strings.Builder
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("campaign %s: exit %d: %s", strings.Join(args, " "), code, errBuf.String())
	}
	return out.String()
}

// runMini executes the mini campaign through the CLI at the given
// worker count and returns the ledger bytes and the analyze report.
func runMini(t *testing.T, jobs int) ([]byte, string) {
	t.Helper()
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	runCLI(t, "run", "-spec", "testdata/mini.json", "-ledger", ledger,
		"-quick", "-jobs", strconv.Itoa(jobs))
	data, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	return data, runCLI(t, "analyze", "-ledger", ledger)
}

// TestCrossShardDeterminism is the end-to-end determinism gate: same
// spec and seeds at -jobs 1, 4, and 8 must produce a byte-identical
// ledger and a byte-identical analyze report.
func TestCrossShardDeterminism(t *testing.T) {
	baseLedger, baseReport := runMini(t, 1)
	for _, jobs := range []int{4, 8} {
		ledger, report := runMini(t, jobs)
		if !bytes.Equal(baseLedger, ledger) {
			t.Errorf("ledger differs between -jobs 1 and -jobs %d", jobs)
		}
		if baseReport != report {
			t.Errorf("analyze report differs between -jobs 1 and -jobs %d", jobs)
		}
	}
}

// TestRunAppendsToExistingLedger proves append-only semantics: a
// second run lands after the first, and analyze rejects the duplicate
// cells rather than silently double-counting.
func TestRunAppendsToExistingLedger(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	runCLI(t, "run", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick", "-jobs", "2")
	first, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	runCLI(t, "run", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick", "-jobs", "2")
	both, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(both, append(append([]byte{}, first...), first...)) {
		t.Fatal("second run did not append the same records after the first")
	}
	var out, errBuf strings.Builder
	if code := run([]string{"analyze", "-ledger", ledger}, &out, &errBuf); code == 0 {
		t.Fatal("analyze must reject duplicate cells")
	} else if !strings.Contains(errBuf.String(), "duplicate") {
		t.Fatalf("analyze error %q does not mention duplicate cells", errBuf.String())
	}
}

// TestRunRefusesCorruptLedger: an unreadable existing ledger must stop
// the run before any session executes.
func TestRunRefusesCorruptLedger(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := os.WriteFile(ledger, []byte(`{"schema":1`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf strings.Builder
	if code := run([]string{"run", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick"}, &out, &errBuf); code != exitCorrupt {
		t.Fatalf("run on a corrupt ledger: exit %d, want %d", code, exitCorrupt)
	}
	data, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"schema":1` {
		t.Fatal("refused run still modified the ledger")
	}
}

func TestCLIUsageAndErrors(t *testing.T) {
	cases := []struct {
		args []string
		code int
	}{
		{nil, exitUsage},
		{[]string{"bogus"}, exitUsage},
		{[]string{"run"}, exitUsage},
		{[]string{"analyze"}, exitUsage},
		{[]string{"repair"}, exitUsage},
		{[]string{"resume"}, exitUsage},
		{[]string{"run", "-spec", "testdata/mini.json"}, exitUsage},
		{[]string{"analyze", "-ledger", "testdata/does-not-exist.jsonl"}, exitUsage},
		{[]string{"analyze", "-ledger", "x.jsonl", "-emit-spec", "y.json"}, exitUsage},
		{[]string{"help"}, 0},
	}
	for _, tc := range cases {
		var out, errBuf strings.Builder
		if code := run(tc.args, &out, &errBuf); code != tc.code {
			t.Errorf("campaign %v: exit %d, want %d (stderr: %s)", tc.args, code, tc.code, errBuf.String())
		}
	}
}

// checkPprof fails t unless path holds a non-empty gzipped profile.
func checkPprof(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s is not gzip data: %v", path, err)
	}
	if raw, err := io.ReadAll(zr); err != nil || len(raw) == 0 {
		t.Fatalf("%s holds %d bytes of profile (%v), want a non-empty profile", path, len(raw), err)
	}
}

// TestProfileFlagsLeaveLedgerUnchanged: -cpuprofile and -memprofile on
// run and on resume write pprof data to their own files, and the
// ledger and the stdout summary are what the unprofiled run writes.
func TestProfileFlagsLeaveLedgerUnchanged(t *testing.T) {
	dir := t.TempDir()
	plain, profiled := filepath.Join(dir, "plain.jsonl"), filepath.Join(dir, "profiled.jsonl")
	wantOut := runCLI(t, "run", "-spec", "testdata/mini.json", "-ledger", plain, "-quick", "-jobs", "2")
	want := mustRead(t, plain)

	cpu, mem := filepath.Join(dir, "run-cpu.prof"), filepath.Join(dir, "run-mem.prof")
	out := runCLI(t, "run", "-spec", "testdata/mini.json", "-ledger", profiled, "-quick", "-jobs", "2",
		"-cpuprofile", cpu, "-memprofile", mem)
	if got := mustRead(t, profiled); !bytes.Equal(got, want) {
		t.Fatal("a profiled run's ledger differs from the unprofiled run's")
	}
	if out != strings.ReplaceAll(wantOut, plain, profiled) {
		t.Fatalf("profiled run printed %q, unprofiled %q", out, wantOut)
	}
	checkPprof(t, cpu)
	checkPprof(t, mem)

	// Drop the last two records and resume, profiled.
	cut := bytes.LastIndexByte(want[:len(want)-1], '\n')
	cut = bytes.LastIndexByte(want[:cut], '\n') + 1
	if err := os.WriteFile(profiled, want[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	cpu, mem = filepath.Join(dir, "resume-cpu.prof"), filepath.Join(dir, "resume-mem.prof")
	runCLI(t, "resume", "-spec", "testdata/mini.json", "-ledger", profiled, "-quick", "-jobs", "2",
		"-cpuprofile", cpu, "-memprofile", mem)
	if got := mustRead(t, profiled); !bytes.Equal(got, want) {
		t.Fatal("a profiled resume's ledger differs from the uninterrupted run's")
	}
	checkPprof(t, cpu)
	checkPprof(t, mem)
	if _, err := os.Stat(campaign.QuarantinePath(profiled)); err == nil {
		if q := mustRead(t, campaign.QuarantinePath(profiled)); len(q) != 0 {
			t.Fatalf("profiled runs left a quarantine sidecar: %q", q)
		}
	}

	// A profile that cannot be written is a usage error before any cell
	// runs: the ledger is not even created.
	bad := filepath.Join(dir, "no-such-dir", "x.prof")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		ledger := filepath.Join(dir, "never.jsonl")
		if code, _, stderr := cli(t, "run", "-spec", "testdata/mini.json", "-ledger", ledger,
			"-quick", flag, bad); code != exitUsage || !strings.Contains(stderr, "profile") {
			t.Fatalf("unwritable %s: exit %d, stderr %q", flag, code, stderr)
		}
		if _, err := os.Stat(ledger); !os.IsNotExist(err) {
			t.Fatalf("unwritable %s: the run went ahead and wrote a ledger", flag)
		}
	}
}
