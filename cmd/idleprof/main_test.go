package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestIdleProfile(t *testing.T) {
	var out, errBuf strings.Builder
	if code := run([]string{"-persona", "nt40", "-seconds", "0.5"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	got := out.String()
	if !strings.Contains(got, "Windows NT 4.0") || !strings.Contains(got, "idle samples") {
		t.Fatalf("missing header:\n%s", got)
	}
	if !strings.Contains(got, "clock interrupts taken: 50") {
		t.Fatalf("clock count missing:\n%s", got)
	}
}

func TestBurstAndCSV(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "samples.csv")
	var out, errBuf strings.Builder
	code := run([]string{"-persona", "w95", "-seconds", "1",
		"-burst-ms", "30", "-burst-at-ms", "200", "-csv", csv}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Fatalf("csv confirmation missing")
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "done_ms,elapsed_ms") {
		t.Fatalf("csv header wrong")
	}
	// The 30 ms burst must show in the observed non-idle time.
	if !strings.Contains(out.String(), "total non-idle time observed") {
		t.Fatalf("summary missing")
	}
}

func TestBadArgs(t *testing.T) {
	var out, errBuf strings.Builder
	if code := run([]string{"-persona", "beos"}, &out, &errBuf); code != 1 {
		t.Fatalf("unknown persona: exit %d", code)
	}
	if got, want := errBuf.String(), "idleprof: unknown persona \"beos\" (nt351, nt40, w95)\n"; got != want {
		t.Fatalf("unknown persona message = %q, want %q", got, want)
	}
	if code := run([]string{"-seconds", "0"}, &out, &errBuf); code != 1 {
		t.Fatalf("zero seconds: exit %d", code)
	}
	if code := run([]string{"-nope"}, &out, &errBuf); code != 2 {
		t.Fatalf("bad flag: exit %d", code)
	}
	if code := run([]string{"-seconds", "0.3", "-csv", filepath.Join(t.TempDir(), "no", "dir", "x.csv")}, &out, &errBuf); code != 1 {
		t.Fatalf("bad csv path: exit %d", code)
	}
}
