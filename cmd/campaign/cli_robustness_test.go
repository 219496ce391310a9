package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"latlab/internal/campaign"
)

// helperArgsEnv re-execs the test binary as the real CLI: TestMain
// dispatches to run() when it is set (args joined by the unit
// separator, which cannot appear in ours).
const helperArgsEnv = "CAMPAIGN_CLI_HELPER_ARGS"

func TestMain(m *testing.M) {
	if argv := os.Getenv(helperArgsEnv); argv != "" {
		os.Exit(run(strings.Split(argv, "\x1f"), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// cli runs the CLI in-process and returns its exit code and stderr.
func cli(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errBuf strings.Builder
	code := run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// goldenCLILedger runs the mini campaign once and returns the ledger
// path and its bytes.
func goldenCLILedger(t *testing.T) (string, []byte) {
	t.Helper()
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	runCLI(t, "run", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick", "-jobs", "4")
	data, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	return ledger, data
}

func TestRepairCLI(t *testing.T) {
	ledger, golden := goldenCLILedger(t)
	// Intact ledger: no-op, exit 0.
	if code, out, stderr := cli(t, "repair", "-ledger", ledger); code != exitOK || !strings.Contains(out, "intact") {
		t.Fatalf("repair intact: exit %d, out %q, err %q", code, out, stderr)
	}
	// Torn final append: truncated to the last valid record, exit 0.
	cut := len(golden) - 17
	if err := os.WriteFile(ledger, golden[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, stderr := cli(t, "repair", "-ledger", ledger)
	if code != exitOK || !strings.Contains(out, "dropped a torn final append") {
		t.Fatalf("repair torn: exit %d, out %q, err %q", code, out, stderr)
	}
	fixed, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	lastNL := bytes.LastIndexByte(golden[:cut], '\n')
	if !bytes.Equal(fixed, golden[:lastNL+1]) {
		t.Fatal("repair did not truncate to the last valid record")
	}
	// Mid-ledger corruption: refused with exit 4, file untouched.
	corrupt := append([]byte("garbage line\n"), fixed...)
	if err := os.WriteFile(ledger, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = cli(t, "repair", "-ledger", ledger)
	if code != exitCorrupt || !strings.Contains(stderr, "refusing") {
		t.Fatalf("repair corrupt: exit %d, err %q", code, stderr)
	}
	after, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, corrupt) {
		t.Fatal("refused repair still modified the ledger")
	}
}

// TestRepairCLISalvagesTornQuarantine: the sidecar is appended like the
// ledger, so a crash can tear its final entry too. run and resume refuse
// it and name repair, repair truncates it, and resume then proceeds.
// Other sidecar damage is refused before either file is touched.
func TestRepairCLISalvagesTornQuarantine(t *testing.T) {
	ledger, golden := goldenCLILedger(t)
	qPath := campaign.QuarantinePath(ledger)
	torn := []byte(`{"schema":1,"campaign":"mini","scen`)
	if err := os.WriteFile(qPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, verb := range []string{"run", "resume"} {
		code, _, stderr := cli(t, verb, "-spec", "testdata/mini.json", "-ledger", ledger, "-quick")
		if code != exitCorrupt || !strings.Contains(stderr, "mid-entry") || !strings.Contains(stderr, "campaign repair") {
			t.Fatalf("%s on torn sidecar: exit %d, err %q", verb, code, stderr)
		}
	}
	if !bytes.Equal(mustRead(t, ledger), golden) {
		t.Fatal("a refused run changed the ledger")
	}
	code, out, stderr := cli(t, "repair", "-ledger", ledger)
	if code != exitOK || !strings.Contains(out, qPath+": dropped a torn final append") {
		t.Fatalf("repair torn sidecar: exit %d, out %q, err %q", code, out, stderr)
	}
	if got := mustRead(t, qPath); len(got) != 0 {
		t.Fatalf("repaired sidecar holds %q, want nothing", got)
	}
	if code, _, stderr := cli(t, "resume", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick"); code != exitOK {
		t.Fatalf("resume after repair: exit %d, err %q", code, stderr)
	}
	// A torn ledger beside a sidecar with a terminated bad line: repair
	// refuses, and leaves both files as they were.
	tornLedger := golden[:len(golden)-5]
	if err := os.WriteFile(ledger, tornLedger, 0o644); err != nil {
		t.Fatal(err)
	}
	badSidecar := []byte("{}\n")
	if err := os.WriteFile(qPath, badSidecar, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = cli(t, "repair", "-ledger", ledger)
	if code != exitCorrupt || !strings.Contains(stderr, "quarantine line 1") || !strings.Contains(stderr, "refusing") {
		t.Fatalf("repair corrupt sidecar: exit %d, err %q", code, stderr)
	}
	if !bytes.Equal(mustRead(t, ledger), tornLedger) || !bytes.Equal(mustRead(t, qPath), badSidecar) {
		t.Fatal("refused repair modified a file")
	}
}

// TestResumeCLIReconverges: truncate a ledger mid-append, repair it,
// resume it at a different worker count — the result must be
// byte-identical to the uninterrupted run.
func TestResumeCLIReconverges(t *testing.T) {
	ledger, golden := goldenCLILedger(t)
	// Tear mid-way through the ledger's 4th record.
	nl := 0
	cut := 0
	for i, b := range golden {
		if b == '\n' {
			if nl++; nl == 3 {
				cut = i + 1 + 20 // 20 bytes into record 4
				break
			}
		}
	}
	if err := os.WriteFile(ledger, golden[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	// Resume refuses the torn ledger outright, pointing at repair.
	if code, _, stderr := cli(t, "resume", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick"); code != exitCorrupt ||
		!strings.Contains(stderr, "repair") {
		t.Fatalf("resume on torn ledger: exit %d, err %q", code, stderr)
	}
	if code, _, stderr := cli(t, "repair", "-ledger", ledger); code != exitOK {
		t.Fatalf("repair: exit %d, err %q", code, stderr)
	}
	code, out, stderr := cli(t, "resume", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick", "-jobs", "3")
	if code != exitOK {
		t.Fatalf("resume: exit %d, err %q", code, stderr)
	}
	if !strings.Contains(out, "resuming") {
		t.Fatalf("resume output %q", out)
	}
	got, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatal("repaired+resumed ledger differs from the uninterrupted golden")
	}
	// Resuming a complete ledger is a no-op.
	code, out, _ = cli(t, "resume", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick")
	if code != exitOK || !strings.Contains(out, "nothing to resume") {
		t.Fatalf("resume complete: exit %d, out %q", code, out)
	}
}

// TestQuarantineCLI: an injected cell failure quarantines the cell
// (exit 2, sidecar written) while the rest of the campaign completes;
// a resume retries it with the same seeds and clears the sidecar.
func TestQuarantineCLI(t *testing.T) {
	_, golden := goldenCLILedger(t)
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	qPath := campaign.QuarantinePath(ledger)
	// Fail every attempt of one specific cell while attempts <= 1.
	t.Setenv("LATLAB_CAMPAIGN_INJECT", "fail=nt40/p200/5+4@1")
	code, _, stderr := cli(t, "run", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick", "-jobs", "2")
	if code != exitQuarantined || !strings.Contains(stderr, "quarantined") {
		t.Fatalf("run with fault: exit %d, err %q", code, stderr)
	}
	entries, err := campaign.LoadQuarantine(qPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Attempts != 1 || entries[0].Cell() != "tiny-type/nt40/p200/5+4" {
		t.Fatalf("sidecar %+v", entries)
	}
	recs, err := campaign.ParseLedger(mustRead(t, ledger))
	if err != nil {
		t.Fatal(err)
	}
	goldenRecs, err := campaign.ParseLedger(golden)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(goldenRecs)-1 {
		t.Fatalf("%d records with one quarantined cell, want %d", len(recs), len(goldenRecs)-1)
	}
	// Resume: global attempt 2 passes the @1 gate, so the cell retries
	// with its original seeds and its record is byte-identical to the
	// golden run's.
	code, _, stderr = cli(t, "resume", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick", "-backoff", "0s")
	if code != exitOK {
		t.Fatalf("resume after quarantine: exit %d, err %q", code, stderr)
	}
	if _, err := os.Stat(qPath); !os.IsNotExist(err) {
		t.Fatal("successful resume must clear the quarantine sidecar")
	}
	recs, err = campaign.ParseLedger(mustRead(t, ledger))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(goldenRecs) {
		t.Fatalf("%d records after resume, want %d", len(recs), len(goldenRecs))
	}
	// The retried record (appended last) matches the golden bytes of the
	// same cell.
	last := recs[len(recs)-1]
	if last.Cell() != "tiny-type/nt40/p200/5+4" {
		t.Fatalf("last record is %s, want the retried cell", last.Cell())
	}
	wantLine, _ := campaign.MarshalRecord(goldenRecs[indexOfCell(t, goldenRecs, last.Cell())])
	gotLine, _ := campaign.MarshalRecord(last)
	if !bytes.Equal(wantLine, gotLine) {
		t.Fatal("retried cell's record differs from the uninterrupted run's")
	}
}

// TestQuarantineCLIBudgetExhausted: a permanently failing cell stays
// quarantined once its attempts reach the retry budget, and the resume
// still exits 2.
func TestQuarantineCLIBudgetExhausted(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	qPath := campaign.QuarantinePath(ledger)
	t.Setenv("LATLAB_CAMPAIGN_INJECT", "fail=nt40/p200/5+4")
	if code, _, _ := cli(t, "run", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick"); code != exitQuarantined {
		t.Fatalf("run: exit %d", code)
	}
	// Two resumes: the first burns attempts 2..3 (budget 3, exit 2); the
	// second finds the cell out of budget and skips it (still exit 2).
	for i := 0; i < 2; i++ {
		code, _, stderr := cli(t, "resume", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick", "-backoff", "0s")
		if code != exitQuarantined {
			t.Fatalf("resume %d: exit %d, err %q", i, code, stderr)
		}
	}
	entries, err := campaign.LoadQuarantine(qPath)
	if err != nil {
		t.Fatal(err)
	}
	latest := campaign.LatestQuarantine(entries)
	if q, ok := latest["tiny-type/nt40/p200/5+4"]; !ok || q.Attempts != 3 {
		t.Fatalf("sidecar %+v, want the cell at 3 attempts", latest)
	}
}

// TestEmitSpecCLIRoundTrip: analyze -emit-spec writes a spec the CLI
// can run, closing the refine loop end to end.
func TestEmitSpecCLIRoundTrip(t *testing.T) {
	ledger, _ := goldenCLILedger(t)
	next := filepath.Join(t.TempDir(), "next.json")
	code, out, stderr := cli(t, "analyze", "-ledger", ledger, "-emit-spec", next, "-spec", "testdata/mini.json")
	if code != exitOK || !strings.Contains(out, "suggested spec") {
		t.Fatalf("analyze -emit-spec: exit %d, out %q, err %q", code, out, stderr)
	}
	nextLedger := filepath.Join(t.TempDir(), "next-ledger.jsonl")
	if code, _, stderr := cli(t, "run", "-spec", next, "-ledger", nextLedger, "-quick"); code != exitOK {
		t.Fatalf("run emitted spec: exit %d, err %q", code, stderr)
	}
	if code, _, stderr := cli(t, "analyze", "-ledger", nextLedger); code != exitOK {
		t.Fatalf("analyze emitted ledger: exit %d, err %q", code, stderr)
	}
}

// TestSignalInterruptLeavesResumableLedger drives the real binary:
// SIGINT mid-campaign must drain, fsync a clean prefix, exit 3, and
// the ledger must resume to the byte-identical golden.
func TestSignalInterruptLeavesResumableLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	_, golden := goldenCLILedger(t)
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	args := strings.Join([]string{"run", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick", "-jobs", "2"}, "\x1f")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		helperArgsEnv+"="+args,
		// Slow every cell down so the interrupt lands mid-campaign.
		"LATLAB_CAMPAIGN_INJECT=sleep=150ms")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	if code != exitOK && code != exitInterrupted {
		t.Fatalf("interrupted run: exit %d (stderr: %s)", code, stderr.String())
	}
	if code == exitInterrupted && !strings.Contains(stderr.String(), "draining") {
		t.Fatalf("no draining message on stderr: %s", stderr.String())
	}
	// The drained ledger is a clean byte prefix of the golden ledger.
	partial := mustRead(t, ledger)
	if !bytes.HasPrefix(golden, partial) {
		t.Fatal("interrupted ledger is not a byte prefix of the golden ledger")
	}
	// Repair is a no-op on a cleanly drained ledger; resume reconverges.
	if code, _, stderr := cli(t, "repair", "-ledger", ledger); code != exitOK {
		t.Fatalf("repair: exit %d, err %q", code, stderr)
	}
	if len(partial) < len(golden) {
		if code, _, stderr := cli(t, "resume", "-spec", "testdata/mini.json", "-ledger", ledger, "-quick", "-jobs", "3"); code != exitOK {
			t.Fatalf("resume: exit %d, err %q", code, stderr)
		}
	}
	if got := mustRead(t, ledger); !bytes.Equal(got, golden) {
		t.Fatal("interrupt + resume did not reconverge to the golden ledger")
	}
}

// mustRead reads a file or fails the test.
func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// indexOfCell finds the record with the given cell id.
func indexOfCell(t *testing.T, recs []campaign.Record, cell string) int {
	t.Helper()
	for i, r := range recs {
		if r.Cell() == cell {
			return i
		}
	}
	t.Fatalf("cell %s not found", cell)
	return -1
}
