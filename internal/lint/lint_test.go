package lint_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgecachegroups/internal/lint"
)

var update = flag.Bool("update", false, "rewrite the golden findings file")

// loadFixtures type-checks the seeded-violation fixture tree.
func loadFixtures(t *testing.T, patterns ...string) []*lint.Package {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(cwd, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages loaded for %v", patterns)
	}
	return pkgs
}

// render formats findings with paths relative to testdata/src so the
// golden file is position-stable.
func render(t *testing.T, findings []lint.Finding) string {
	t.Helper()
	base, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range findings {
		abs, err := filepath.Abs(f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		if rel, err := filepath.Rel(base, abs); err == nil {
			f.Pos.Filename = filepath.ToSlash(rel)
		}
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFixtureFindingsGolden runs the full suite over every seeded
// violation and compares against the golden findings file. Regenerate
// with `go test ./internal/lint -run Golden -update`.
func TestFixtureFindingsGolden(t *testing.T) {
	pkgs := loadFixtures(t, "testdata/src/...")
	got := render(t, lint.Run(pkgs, lint.Analyzers()))

	golden := filepath.Join("testdata", "findings.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("findings diverge from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestAllowSuppressesExactlyOneFinding pins the directive's scope: of
// two identical violations on consecutive statements, the annotated
// one disappears and the other is still reported.
func TestAllowSuppressesExactlyOneFinding(t *testing.T) {
	pkgs := loadFixtures(t, "testdata/src/allowonce")
	findings := lint.Run(pkgs, lint.Analyzers())
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly 1:\n%s", len(findings), render(t, findings))
	}
	f := findings[0]
	if f.Rule != "detclock" || !strings.HasSuffix(f.Pos.Filename, "allowonce.go") {
		t.Fatalf("unexpected finding %s", f)
	}
	// The annotated call sits on line 12; the surviving twin on line 13.
	if f.Pos.Line != 13 {
		t.Fatalf("surviving finding on line %d, want 13 (the unannotated twin)", f.Pos.Line)
	}
}

// TestMalformedDirectivesAreFindings keeps directive hygiene honest: a
// typo'd allow must surface, not silently suppress nothing.
func TestMalformedDirectivesAreFindings(t *testing.T) {
	pkgs := loadFixtures(t, "testdata/src/badallow")
	findings := lint.Run(pkgs, lint.Analyzers())
	if len(findings) != 3 {
		t.Fatalf("got %d directive findings, want 3:\n%s", len(findings), render(t, findings))
	}
	for _, f := range findings {
		if f.Rule != "directive" {
			t.Fatalf("unexpected rule %q in %s", f.Rule, f)
		}
	}
}

// TestRepoIsLintClean runs the suite over the real module, so `go test`
// itself enforces the static invariants: a new wall-clock call, global
// math/rand import, order-dependent map range, or locked channel
// operation anywhere in the tree fails this test with its file:line.
func TestRepoIsLintClean(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(cwd, "..", "..")
	pkgs, err := lint.Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages; the walk lost most of the module", len(pkgs))
	}
	for _, pkg := range pkgs {
		if strings.Contains(pkg.Path, "testdata") {
			t.Fatalf("recursive walk descended into testdata: %s", pkg.Path)
		}
	}
	findings, allows := lint.Audit(pkgs, lint.Analyzers())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	// Every suppression in the tree must carry an audited reason and
	// still guard a live violation; stale ones already surfaced above as
	// directive findings, so this guards the reason text specifically.
	for _, a := range allows {
		if strings.TrimSpace(a.Reason) == "" {
			t.Errorf("%s:%d: ecglint:allow %s has no reason", a.Pos.Filename, a.Pos.Line, a.Rule)
		}
	}
}

// TestAnalyzerMetadata keeps every rule addressable from an allow
// directive and documented for -rules output.
func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.Analyzers() {
		name := a.Name()
		if name == "" || a.Doc() == "" {
			t.Fatalf("analyzer %T missing name or doc", a)
		}
		if seen[name] {
			t.Fatalf("duplicate rule name %q", name)
		}
		seen[name] = true
	}
	for _, want := range []string{"detclock", "detrand", "maporder", "lockedsend", "cowmutate", "errdrop", "scratchshare"} {
		if !seen[want] {
			t.Fatalf("suite is missing required rule %q", want)
		}
	}
}

// TestTransitiveOneCallDeep pins the acceptance criterion directly:
// detclock and lockedsend must catch violations hidden exactly one call
// level deep, with the witness chain naming the hidden frame.
func TestTransitiveOneCallDeep(t *testing.T) {
	pkgs := loadFixtures(t, "testdata/src/transitive/...")
	findings := lint.Run(pkgs, lint.Analyzers())
	var gotClock, gotLock bool
	for _, f := range findings {
		switch {
		case f.Rule == "detclock" && strings.Contains(f.Message, "clockutil.HiddenNow"):
			gotClock = true
		case f.Rule == "lockedsend" && strings.Contains(f.Message, "blockutil.Drain → channel receive"):
			gotLock = true
		}
	}
	if !gotClock {
		t.Errorf("detclock missed the wall-clock call one frame deep:\n%s", render(t, findings))
	}
	if !gotLock {
		t.Errorf("lockedsend missed the blocking call one frame deep:\n%s", render(t, findings))
	}
}

// TestLoadSharesOneUniverse pins the loader's memoization: the package
// transitive imports for clockutil is the very *types.Package Load
// returned for clockutil, so objects compare by identity across
// packages.
func TestLoadSharesOneUniverse(t *testing.T) {
	pkgs := loadFixtures(t, "testdata/src/transitive/...")
	var clock, trans *lint.Package
	for _, pkg := range pkgs {
		switch {
		case strings.HasSuffix(pkg.Path, "/transitive/clockutil"):
			clock = pkg
		case strings.HasSuffix(pkg.Path, "/transitive"):
			trans = pkg
		}
	}
	if clock == nil || trans == nil {
		t.Fatalf("fixture packages missing: clockutil %v, transitive %v", clock != nil, trans != nil)
	}
	for _, imp := range trans.Types.Imports() {
		if imp.Path() == clock.Path {
			if imp != clock.Types {
				t.Fatalf("transitive imports a second copy of %s", clock.Path)
			}
			return
		}
	}
	t.Fatalf("transitive does not import %s", clock.Path)
}

// TestLoadRelativeRoot checks that root may be relative to the working
// directory, as it is for the CLI's patterns.
func TestLoadRelativeRoot(t *testing.T) {
	pkgs, err := lint.Load(".", []string{"testdata/src/detclock"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || !strings.HasSuffix(pkgs[0].Path, "/internal/lint/testdata/src/detclock") {
		t.Fatalf("loaded %d packages, want only the detclock fixture", len(pkgs))
	}
}

// TestStaleAllowIsReported keeps suppressions from outliving their
// violation: a well-formed directive guarding nothing must surface.
func TestStaleAllowIsReported(t *testing.T) {
	pkgs := loadFixtures(t, "testdata/src/staleallow")
	findings := lint.Run(pkgs, lint.Analyzers())
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly 1 stale-directive report:\n%s", len(findings), render(t, findings))
	}
	f := findings[0]
	if f.Rule != "directive" || !strings.Contains(f.Message, "stale") {
		t.Fatalf("unexpected finding %s", f)
	}
}
