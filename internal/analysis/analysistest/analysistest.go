// Package analysistest is the golden-file harness for idyllvet analyzers,
// modeled on golang.org/x/tools/go/analysis/analysistest but stdlib-only.
//
// A test package lives under internal/analysis/testdata/src/<name>/ and
// annotates the lines where findings are expected:
//
//	now := time.Now() // want `time\.Now reads the wall clock`
//
// Each back-quoted or double-quoted argument is a regexp that must match
// exactly one finding reported on that line; findings with no matching
// expectation, and expectations with no matching finding, both fail the
// test. Suppression directives (//idyllvet:ignore) are honored, so golden
// packages can also pin the suppression behaviour: a suppressed line simply
// carries no want comment.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"idyll/internal/analysis"
)

var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// Run loads testdata/src/<pkg> (resolved relative to the caller's
// directory) and checks a's findings against the package's want comments.
func Run(t *testing.T, a *analysis.Analyzer, testdata, pkg string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkg)
	root, err := moduleRoot(dir)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	p, err := loader.LoadDir(dir, pkg)
	if err != nil {
		t.Fatalf("%s: loading %s: %v", a.Name, dir, err)
	}
	diags, err := analysis.Apply(a, p)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	checkExpectations(t, a.Name, []*analysis.Package{p}, diags)
}

// RunModule loads testdata/src/<name> as a self-contained mini-module (the
// directory carries its own go.mod), runs the full whole-program pipeline —
// per-package checks and the interprocedural taint engine — over ./... of
// that module, and checks the findings against the want comments of every
// package in it. This is the harness for behaviour that cannot be pinned
// from a single directory: taint chains crossing package boundaries.
func RunModule(t *testing.T, analyzers []*analysis.Analyzer, testdata, name string) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join(testdata, "src", name))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	pkgs, err := loader.Match([]string{"./..."})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("%s: no packages under %s", name, dir)
	}
	diags, err := analysis.RunAll(analyzers, analysis.NewProgram(loader, pkgs))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkExpectations(t, name, pkgs, diags)
}

// moduleRoot walks up from dir to the enclosing go.mod, so the harness
// works no matter where the test binary runs from.
func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod above %s", abs)
		}
		d = parent
	}
}

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

func checkExpectations(t *testing.T, label string, pkgs []*analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					wants = append(wants, parseWants(t, p.Fset, c)...)
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.matched || w.file != d.Position.Filename || w.line != d.Position.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding at %s:%d:%d: %s",
				label, filepath.Base(d.Position.Filename), d.Position.Line, d.Position.Column, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: expected finding matching %q at %s:%d, got none",
				label, w.raw, filepath.Base(w.file), w.line)
		}
	}
}

// parseWants extracts the expectations of one "// want ..." comment. The
// expectation applies to the line the comment begins on.
func parseWants(t *testing.T, fset *token.FileSet, c *ast.Comment) []*expectation {
	t.Helper()
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	rest, ok := strings.CutPrefix(text, "want ")
	if !ok {
		return nil
	}
	pos := fset.Position(c.Slash)
	var out []*expectation
	for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
		raw := m[1]
		if raw == "" {
			raw = m[2]
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			t.Fatalf("bad want regexp %q at %s:%d: %v", raw, pos.Filename, pos.Line, err)
		}
		out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
	}
	if len(out) == 0 {
		t.Fatalf("want comment with no pattern at %s:%d", pos.Filename, pos.Line)
	}
	return out
}
