package hostprof

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// checkPprof fails t unless path holds a non-empty gzipped profile.
func checkPprof(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s is not gzip data: %v", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil || len(raw) == 0 {
		t.Fatalf("%s holds %d bytes of profile (%v), want a non-empty profile", path, len(raw), err)
	}
}

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i * i
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	checkPprof(t, cpu)
	checkPprof(t, mem)
}

func TestStartWithoutPathsWritesNothing(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartReportsUnwritablePaths(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no-such-dir", "x.prof")
	if _, err := Start(missing, ""); err == nil {
		t.Fatal("Start with an uncreatable CPU profile path succeeded")
	}
	if _, err := Start(filepath.Join(dir, "cpu.prof"), missing); err == nil {
		t.Fatal("Start with an uncreatable memory profile path succeeded")
	}
	// The failed Starts left no CPU profile running, so a new one starts.
	cpu := filepath.Join(dir, "cpu2.prof")
	stop, err := Start(cpu, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	checkPprof(t, cpu)
}
