package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"latlab/internal/trace"
)

func TestList(t *testing.T) {
	var out, errBuf strings.Builder
	if code := run([]string{"-list"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	for _, id := range []string{"fig1", "table1", "table2", "ext-slowcpu", "ext-attrib"} {
		if !strings.Contains(out.String(), id) {
			t.Fatalf("list missing %s:\n%s", id, out.String())
		}
	}
	// Experiments are listed in groups.
	for _, header := range []string{"paper figures:", "paper tables & sections:", "extensions (beyond the paper):"} {
		if !strings.Contains(out.String(), header) {
			t.Fatalf("list missing group header %q:\n%s", header, out.String())
		}
	}
	// s54 (a section, not a figure or extension) lands in the tables group.
	tables := out.String()[strings.Index(out.String(), "paper tables"):strings.Index(out.String(), "extensions (")]
	if !strings.Contains(tables, "s54") {
		t.Fatalf("s54 not grouped under tables & sections:\n%s", tables)
	}
	// The machine table carries the era and description columns, and the
	// modern experiments and profiles are listed.
	for _, want := range []string{"era", "description", "ext-modern-dvfs",
		"m2026-pin", "the paper's experimental machine"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunQuickSubset(t *testing.T) {
	var out, errBuf strings.Builder
	if code := run([]string{"-quick", "-run", "fig1,fig4"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	got := out.String()
	if !strings.Contains(got, "Fig. 1") || !strings.Contains(got, "Fig. 4") {
		t.Fatalf("missing experiment output:\n%s", got)
	}
	if !strings.Contains(got, "====") {
		t.Fatalf("missing separator between experiments")
	}
	if !strings.Contains(got, "reproduces Fig. 1") {
		t.Fatalf("missing provenance footer")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errBuf strings.Builder
	if code := run([]string{"-run", "fig99"}, &out, &errBuf); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "unknown experiment") {
		t.Fatalf("stderr = %q", errBuf.String())
	}
	// The error names the valid ids, matching -machine's error style.
	if !strings.Contains(errBuf.String(), "valid:") || !strings.Contains(errBuf.String(), "fig1") {
		t.Fatalf("stderr missing valid-id list: %q", errBuf.String())
	}
}

// TestTraceAndAttribExport runs one experiment with span recording and
// checks the Chrome trace is loadable JSON in the trace-event shape and
// the attribution CSV round-trips through the trace parser.
func TestTraceAndAttribExport(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	attrPath := filepath.Join(dir, "attrib.csv")
	var out, errBuf strings.Builder
	code := run([]string{"-quick", "-run", "ext-attrib", "-trace", tracePath, "-attrib", attrPath}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace shape wrong: unit=%q events=%d", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	sawMeta, sawComplete := false, false
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			sawMeta = true
		case "X":
			sawComplete = true
		}
	}
	if !sawMeta || !sawComplete {
		t.Fatalf("trace missing metadata or complete events (M=%v X=%v)", sawMeta, sawComplete)
	}

	f, err := os.Open(attrPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := trace.ParseAttribCSV(f)
	if err != nil {
		t.Fatalf("attribution CSV does not parse: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("attribution CSV has no episodes")
	}
	for _, r := range recs {
		if !strings.Contains(r.Label, "Windows NT") || !strings.Contains(r.Label, "WM_") {
			t.Fatalf("episode label %q missing track or message name", r.Label)
		}
		if r.Latency() <= 0 || len(r.Causes) == 0 {
			t.Fatalf("degenerate episode record: %+v", r)
		}
	}
}

func TestBadFlag(t *testing.T) {
	var out, errBuf strings.Builder
	if code := run([]string{"-bogus"}, &out, &errBuf); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestOutFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.txt")
	var out, errBuf strings.Builder
	if code := run([]string{"-quick", "-run", "fig1", "-out", path}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Fig. 1") {
		t.Fatalf("out file missing content")
	}
	// Bad out path errors.
	if code := run([]string{"-quick", "-run", "fig1", "-out", filepath.Join(dir, "nope", "x")}, &out, &errBuf); code != 1 {
		t.Fatalf("bad out path should exit 1")
	}
}

// An -out file is written under a temp name and renamed into place, yet
// it must get the mode a direct os.Create would have given it (0666
// less umask), not the owner-only 0600 of os.CreateTemp.
func TestOutFileModeMatchesCreate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.txt")
	var out, errBuf strings.Builder
	if code := run([]string{"-quick", "-run", "fig1", "-out", path}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	f, err := os.Create(filepath.Join(dir, "sibling.txt"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	want, err := os.Stat(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode() != want.Mode() {
		t.Fatalf("-out file mode %v, want %v (as os.Create makes it)", got.Mode(), want.Mode())
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	var out, errBuf strings.Builder
	if code := run([]string{"-quick", "-run", "fig7", "-csv-dir", dir}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 { // one per persona
		t.Fatalf("csv files = %d, want 3", len(entries))
	}
	data, err := os.ReadFile(dir + "/" + entries[0].Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "enqueued_ms,") {
		t.Fatalf("csv header wrong: %q", string(data[:40]))
	}
	if !strings.HasPrefix(entries[0].Name(), "fig7-windows") {
		t.Fatalf("file naming wrong: %s", entries[0].Name())
	}
}

func TestSVGReportExport(t *testing.T) {
	dir := t.TempDir()
	var out, errBuf strings.Builder
	if code := run([]string{"-quick", "-run", "fig7", "-svg-dir", dir}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 3 personas × (events + histogram + cumulative).
	if len(entries) != 9 {
		names := []string{}
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("svg files = %v, want 9", names)
	}
}

func TestSVGExport(t *testing.T) {
	dir := t.TempDir()
	var out, errBuf strings.Builder
	if code := run([]string{"-quick", "-run", "fig4,fig5", "-svg-dir", dir}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// fig4: 2 profiles; fig5: 1 event set + no reports (Fig5Result has no
	// Reports method).
	if len(entries) != 3 {
		names := []string{}
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("svg files = %v, want 3", names)
	}
	data, err := os.ReadFile(dir + "/" + entries[0].Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg ") {
		t.Fatalf("not svg: %q", string(data[:20]))
	}
}

// TestJobsDeterminism runs the full quick suite at -jobs 1, 4, and 8 and
// asserts the rendered output is byte-identical and the JSON manifests
// are identical modulo timing fields (and the jobs count itself, which
// is part of the run configuration being varied).
func TestJobsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick suite three times")
	}
	type result struct {
		render string
		man    map[string]any
	}
	dir := t.TempDir()
	results := make(map[int]result)
	for _, jobs := range []int{1, 4, 8} {
		path := filepath.Join(dir, fmt.Sprintf("manifest-%d.json", jobs))
		var out, errBuf strings.Builder
		if code := run([]string{"-quick", "-jobs", strconv.Itoa(jobs), "-json", path}, &out, &errBuf); code != 0 {
			t.Fatalf("jobs=%d exit %d: %s", jobs, code, errBuf.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var man map[string]any
		if err := json.Unmarshal(data, &man); err != nil {
			t.Fatalf("jobs=%d manifest not JSON: %v", jobs, err)
		}
		stripTimingFields(man)
		results[jobs] = result{render: out.String(), man: man}
	}
	base := results[1]
	for _, jobs := range []int{4, 8} {
		r := results[jobs]
		if r.render != base.render {
			t.Errorf("-jobs %d render differs from -jobs 1 (lens %d vs %d)", jobs, len(r.render), len(base.render))
		}
		got, _ := json.Marshal(r.man)
		want, _ := json.Marshal(base.man)
		if string(got) != string(want) {
			t.Errorf("-jobs %d manifest differs from -jobs 1:\n got: %s\nwant: %s", jobs, got, want)
		}
	}
}

// stripTimingFields zeroes the manifest fields that legitimately vary
// between runs: wall-clock timings, the start stamp, and the varied jobs
// count.
func stripTimingFields(man map[string]any) {
	delete(man, "started_at")
	delete(man, "wall_seconds")
	delete(man, "jobs")
	if recs, ok := man["records"].([]any); ok {
		for _, r := range recs {
			if rec, ok := r.(map[string]any); ok {
				delete(rec, "wall_seconds")
			}
		}
	}
}

// TestFaultExperimentsDeterministicAcrossJobs is the -jobs property for
// the fault-injection family specifically: the plan is derived from the
// seed alone, so the same seed must give byte-identical renders however
// the worker pool schedules the clean and degraded runs.
func TestFaultExperimentsDeterministicAcrossJobs(t *testing.T) {
	var renders []string
	for _, jobs := range []int{1, 8} {
		var out, errBuf strings.Builder
		code := run([]string{"-quick", "-run", "ext-faults-disk,ext-faults-irq,ext-faults-cache",
			"-jobs", strconv.Itoa(jobs)}, &out, &errBuf)
		if code != 0 {
			t.Fatalf("jobs=%d exit %d: %s", jobs, code, errBuf.String())
		}
		renders = append(renders, out.String())
	}
	if renders[0] != renders[1] {
		t.Fatalf("fault suite render differs between -jobs 1 and -jobs 8 (lens %d vs %d)",
			len(renders[0]), len(renders[1]))
	}
}

// TestTraceDeterministicAcrossJobs is the -jobs property for the span
// exports: track naming must not depend on pool completion order. The
// experiment set covers the two historical hazards — ext-interrupts
// boots several same-named rigs per persona (suffix order), and
// fig8+table1 share the PowerPoint memo (whichever spec simulates it
// deposits its spans).
func TestTraceDeterministicAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	var exports [][2][]byte
	for _, jobs := range []int{1, 8} {
		tr := filepath.Join(dir, fmt.Sprintf("t%d.json", jobs))
		at := filepath.Join(dir, fmt.Sprintf("a%d.csv", jobs))
		var out, errBuf strings.Builder
		code := run([]string{"-quick", "-run", "ext-interrupts,fig8,table1",
			"-jobs", strconv.Itoa(jobs), "-trace", tr, "-attrib", at}, &out, &errBuf)
		if code != 0 {
			t.Fatalf("jobs=%d exit %d: %s", jobs, code, errBuf.String())
		}
		trData, err := os.ReadFile(tr)
		if err != nil {
			t.Fatal(err)
		}
		atData, err := os.ReadFile(at)
		if err != nil {
			t.Fatal(err)
		}
		exports = append(exports, [2][]byte{trData, atData})
	}
	if !bytes.Equal(exports[0][0], exports[1][0]) {
		t.Errorf("trace JSON differs between -jobs 1 and -jobs 8 (lens %d vs %d)",
			len(exports[0][0]), len(exports[1][0]))
	}
	if !bytes.Equal(exports[0][1], exports[1][1]) {
		t.Errorf("attrib CSV differs between -jobs 1 and -jobs 8 (lens %d vs %d)",
			len(exports[0][1]), len(exports[1][1]))
	}
}

func TestJSONManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	var out, errBuf strings.Builder
	if code := run([]string{"-quick", "-run", "fig1,fig4", "-jobs", "2", "-json", path}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Jobs    int `json:"jobs"`
		Records []struct {
			ID          string  `json:"id"`
			WallSeconds float64 `json:"wall_seconds"`
			Error       string  `json:"error"`
		} `json:"records"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatalf("manifest not JSON: %v", err)
	}
	if man.Jobs != 2 {
		t.Fatalf("jobs = %d, want 2", man.Jobs)
	}
	if len(man.Records) != 2 || man.Records[0].ID != "fig1" || man.Records[1].ID != "fig4" {
		t.Fatalf("records wrong: %+v", man.Records)
	}
	for _, r := range man.Records {
		if r.WallSeconds <= 0 || r.Error != "" {
			t.Fatalf("record %s: %+v", r.ID, r)
		}
	}
}

func TestTimeoutProducesFailedRecordAndExit1(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	var out, errBuf strings.Builder
	code := run([]string{"-quick", "-run", "fig1,fig4", "-timeout", "1ns", "-json", path}, &out, &errBuf)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "timed out") {
		t.Fatalf("stderr missing timeout notice: %q", errBuf.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"timed_out": true`) {
		t.Fatalf("manifest missing timed_out flag:\n%s", data)
	}
}

func TestExportErrorLeavesNoOutFile(t *testing.T) {
	dir := t.TempDir()
	// A regular file where -svg-dir expects a directory makes export fail.
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "results.txt")
	var out, errBuf strings.Builder
	if code := run([]string{"-quick", "-run", "fig4", "-svg-dir", blocker, "-out", outPath}, &out, &errBuf); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errBuf.String())
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatalf("truncated -out file left behind (stat err = %v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".results.txt.tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
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

// TestProfileFlagsLeaveOutputUnchanged: -cpuprofile and -memprofile
// write pprof data to their own files; the -out file is the unprofiled
// run's byte for byte, and stdout stays empty.
func TestProfileFlagsLeaveOutputUnchanged(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var outs [2][]byte
	for i, extra := range [][]string{nil, {"-cpuprofile", cpu, "-memprofile", mem}} {
		path := filepath.Join(dir, fmt.Sprintf("out%d.txt", i))
		var out, errBuf strings.Builder
		if code := run(append([]string{"-quick", "-run", "fig1", "-out", path}, extra...), &out, &errBuf); code != 0 {
			t.Fatalf("%v: exit %d: %s", extra, code, errBuf.String())
		}
		if out.Len() != 0 {
			t.Fatalf("%v: stdout %q, want nothing beside -out", extra, out.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = data
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatal("a profiled run's -out file differs from the unprofiled run's")
	}
	checkPprof(t, cpu)
	checkPprof(t, mem)

	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		var out, errBuf strings.Builder
		if code := run([]string{"-quick", "-run", "fig1", flag, filepath.Join(dir, "nope", "x.prof")}, &out, &errBuf); code != 1 || out.Len() != 0 {
			t.Fatalf("unwritable %s: exit %d, stdout %q; want 1 and nothing run", flag, code, out.String())
		}
	}
}
