package lint_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// fixtureLoader is shared across fixture subtests so the stdlib source
// importer's cache is paid for once.
var fixtureLoader = lint.NewLoader()

// fixtureCases maps each golden fixture package to the synthetic import
// path it is loaded under and the analyzer it exercises. The ignore
// fixture reuses floateq as the finding source for the directive
// machinery.
var fixtureCases = []struct {
	dir      string
	path     string
	analyzer *lint.Analyzer
}{
	{"globalrand", "repro/internal/mc", lint.GlobalRand},
	{"maporder", "repro/internal/gibbs", lint.MapOrder},
	{"ctxhygiene", "repro/internal/jobs", lint.CtxHygiene},
	{"nilsafetelemetry", "repro/internal/telemetry", lint.NilSafeTelemetry},
	{"floateq", "repro/internal/sram", lint.FloatEq},
	{"ignore", "repro/internal/sram", lint.FloatEq},
	{"seedflow", "repro/internal/model", lint.Seedflow},
	{"lockguard", "repro/internal/dist", lint.LockGuard},
	{"goroutinelife", "repro/internal/serve", lint.GoroutineLife},
	{"wirestable", "repro/internal/telwire", lint.WireStable},
}

// TestFixtures runs each analyzer over its golden fixture package and
// asserts the exact file:line:analyzer set of diagnostics, with every
// message matched against its want regexp.
func TestFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.dir)
			pkg, err := fixtureLoader.LoadDir(dir, tc.path)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			res := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{tc.analyzer})
			wants, err := parseWants(dir)
			if err != nil {
				t.Fatalf("parsing want annotations: %v", err)
			}
			checkDiags(t, res.Diags, wants)
		})
	}
}

// TestOneFindingPerSeed runs every analyzer together over the seedflow
// fixture, whose constructors include the direct clock and
// process-identity shapes: each tainted seed yields exactly one finding,
// seedflow's, and no other analyzer adds one.
func TestOneFindingPerSeed(t *testing.T) {
	dir := filepath.Join("testdata", "seedflow")
	pkg, err := fixtureLoader.LoadDir(dir, "repro/internal/model")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	wants, err := parseWants(dir)
	if err != nil {
		t.Fatalf("parsing want annotations: %v", err)
	}
	checkDiags(t, lint.Run([]*lint.Package{pkg}, lint.Analyzers()).Diags, wants)
}

// TestSeedflowCrossPackage proves the taint chase crosses package
// boundaries: the caller package feeds time.Now into the provider
// package's constructor, and the diagnostic lands at the constructor
// with the foreign call site cited. The provider must load first so
// the caller's import resolves through the loader cache.
func TestSeedflowCrossPackage(t *testing.T) {
	api, err := fixtureLoader.LoadDir(filepath.Join("testdata", "seedflowapi"), "repro/internal/surrogate")
	if err != nil {
		t.Fatalf("loading provider fixture: %v", err)
	}
	caller, err := fixtureLoader.LoadDir(filepath.Join("testdata", "seedflowcaller"), "repro/internal/distcall")
	if err != nil {
		t.Fatalf("loading caller fixture: %v", err)
	}
	res := lint.Run([]*lint.Package{api, caller}, []*lint.Analyzer{lint.Seedflow})
	if len(res.Diags) != 1 {
		t.Fatalf("diags = %d, want exactly 1:\n%v", len(res.Diags), res.Diags)
	}
	d := res.Diags[0]
	if !strings.Contains(d.File, "seedflowapi") {
		t.Errorf("finding reported in %s; want the provider package (seedflowapi)", d.File)
	}
	for _, needle := range []string{"the wall clock (time.Now)", "tainted via the call at", "seedflowcaller"} {
		if !strings.Contains(d.Message, needle) {
			t.Errorf("message %q missing %q", d.Message, needle)
		}
	}
}

// TestAnnotationCandidates exercises the -fix-annotations helper: the
// lockguard fixture's tracker struct has two mutexes (ambiguous guard,
// skipped); a single-mutex struct in the real module must surface its
// unannotated mutex-adjacent fields.
func TestAnnotationCandidates(t *testing.T) {
	pkg, err := fixtureLoader.LoadDir(filepath.Join("testdata", "ctxhygiene"), "repro/internal/jobs")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	// The ctxhygiene fixture has no mutexes at all: no candidates.
	if got := lint.AnnotationCandidates([]*lint.Package{pkg}); len(got) != 0 {
		t.Errorf("candidates in mutex-free fixture: %v", got)
	}
	lg, err := fixtureLoader.LoadDir(filepath.Join("testdata", "lockguard"), "repro/internal/dist")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	// tracker has two mutexes: ambiguous, so still no candidates.
	if got := lint.AnnotationCandidates([]*lint.Package{lg}); len(got) != 0 {
		t.Errorf("candidates despite ambiguous guards: %v", got)
	}
}

// TestSuppressedCarryReasons asserts that suppressed findings surface
// the directive's justification, so the JSON audit trail is complete.
func TestSuppressedCarryReasons(t *testing.T) {
	pkg, err := fixtureLoader.LoadDir(filepath.Join("testdata", "ignore"), "repro/internal/sram")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	res := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.FloatEq})
	if len(res.Suppressed) != 3 {
		t.Fatalf("suppressed = %d findings, want 3 (trailing, above, list)", len(res.Suppressed))
	}
	for _, d := range res.Suppressed {
		if !d.Suppressed || d.Reason == "" {
			t.Errorf("%s: suppressed finding lost its reason: %+v", d.String(), d)
		}
		if !strings.HasPrefix(d.Reason, "fixture:") {
			t.Errorf("%s: reason %q does not carry the directive text", d.String(), d.Reason)
		}
	}
}

// TestRealModuleClean is the gate the CI lint job re-runs through the
// CLI: the full analyzer registry over the real module must be clean.
func TestRealModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatalf("finding module root: %v", err)
	}
	pkgs, err := lint.NewLoader().LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; module discovery is broken", len(pkgs))
	}
	res := lint.Run(pkgs, lint.Analyzers())
	for _, d := range res.Diags {
		t.Errorf("unexpected finding: %s", d.String())
	}
	// The suppression inventory only shrinks deliberately: if this
	// fails low, suppressions were deleted without removing the code
	// they covered (or an analyzer regressed and stopped firing).
	if len(res.Suppressed) == 0 {
		t.Error("no suppressed findings recorded; expected the audited floateq/nilsafetelemetry suppressions")
	}
}

// TestJSONRoundTrip locks the reprolint/v1 envelope shape.
func TestJSONRoundTrip(t *testing.T) {
	res := lint.Result{
		Diags: []lint.Diagnostic{{
			Analyzer: "floateq", File: "x.go", Line: 3, Col: 7, Message: "m",
		}},
		Suppressed: []lint.Diagnostic{{
			Analyzer: "maporder", File: "y.go", Line: 9, Col: 2, Message: "n",
			Suppressed: true, Reason: "because",
		}},
	}
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, res); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var rep struct {
		Schema      string            `json:"schema"`
		Count       int               `json:"count"`
		Diagnostics []lint.Diagnostic `json:"diagnostics"`
		Suppressed  []lint.Diagnostic `json:"suppressed"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if rep.Schema != lint.JSONSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, lint.JSONSchema)
	}
	if rep.Count != 1 || len(rep.Diagnostics) != 1 || len(rep.Suppressed) != 1 {
		t.Errorf("count/diags/suppressed = %d/%d/%d, want 1/1/1",
			rep.Count, len(rep.Diagnostics), len(rep.Suppressed))
	}
	if rep.Suppressed[0].Reason != "because" {
		t.Errorf("suppressed reason lost in round trip: %+v", rep.Suppressed[0])
	}
}

// TestEmptyJSONHasDiagnosticsArray guards the CI consumer contract: a
// clean run emits "diagnostics": [] rather than null.
func TestEmptyJSONHasDiagnosticsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, lint.Result{}); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), `"diagnostics": []`) {
		t.Errorf("empty result must serialise an empty array, got:\n%s", buf.String())
	}
}

// want is one expected diagnostic parsed from a fixture annotation.
type want struct {
	file     string
	line     int
	analyzer string
	re       *regexp.Regexp
	raw      string
}

// wantRx matches the comment tail: `want` or `want[+N]`, then one or
// more `analyzer `regexp“ pairs.
var (
	wantHeadRx = regexp.MustCompile(`//\s*want(\[([+-]?\d+)\])?\s+(.*)$`)
	wantPairRx = regexp.MustCompile("^([a-z][a-z0-9_-]*)\\s+`([^`]*)`\\s*")
)

// parseWants scans every fixture file for want annotations. The
// optional [N] offset anchors the expectation N lines away from the
// comment (trailing annotations omit it).
func parseWants(dir string) ([]want, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			m := wantHeadRx.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			offset := 0
			if m[2] != "" {
				offset, err = strconv.Atoi(m[2])
				if err != nil {
					f.Close()
					return nil, fmt.Errorf("%s:%d: bad want offset: %v", path, lineNo, err)
				}
			}
			rest := m[3]
			matched := false
			for {
				pm := wantPairRx.FindStringSubmatch(rest)
				if pm == nil {
					break
				}
				matched = true
				re, err := regexp.Compile(pm[2])
				if err != nil {
					f.Close()
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", path, lineNo, pm[2], err)
				}
				abs, err := filepath.Abs(path)
				if err != nil {
					f.Close()
					return nil, err
				}
				wants = append(wants, want{
					file: abs, line: lineNo + offset,
					analyzer: pm[1], re: re, raw: pm[2],
				})
				rest = rest[len(pm[0]):]
			}
			if !matched {
				f.Close()
				return nil, fmt.Errorf("%s:%d: want annotation with no analyzer/regexp pairs", path, lineNo)
			}
		}
		if err := sc.Err(); err != nil {
			f.Close()
			return nil, err
		}
		f.Close()
	}
	return wants, nil
}

// checkDiags asserts a perfect bipartite match between diagnostics and
// wants: same file, same line, same analyzer, message matching the
// regexp — no extras on either side.
func checkDiags(t *testing.T, diags []lint.Diagnostic, wants []want) {
	t.Helper()
	type key struct {
		file     string
		line     int
		analyzer string
	}
	unmatched := make(map[key][]want)
	for _, w := range wants {
		k := key{w.file, w.line, w.analyzer}
		unmatched[k] = append(unmatched[k], w)
	}
	for _, d := range diags {
		abs, err := filepath.Abs(d.File)
		if err != nil {
			t.Fatalf("abs(%q): %v", d.File, err)
		}
		k := key{abs, d.Line, d.Analyzer}
		ws := unmatched[k]
		hit := -1
		for i, w := range ws {
			if w.re.MatchString(d.Message) {
				hit = i
				break
			}
		}
		if hit < 0 {
			t.Errorf("unexpected diagnostic: %s", d.String())
			continue
		}
		ws = append(ws[:hit], ws[hit+1:]...)
		if len(ws) == 0 {
			delete(unmatched, k)
		} else {
			unmatched[k] = ws
		}
	}
	var missing []string
	for _, ws := range unmatched {
		for _, w := range ws {
			missing = append(missing, fmt.Sprintf("%s:%d: [%s] matching %q", w.file, w.line, w.analyzer, w.raw))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("missing expected diagnostic: %s", m)
	}
}
