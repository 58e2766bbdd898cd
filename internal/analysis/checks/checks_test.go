package checks_test

import (
	"strings"
	"testing"

	"idyll/internal/analysis"
	"idyll/internal/analysis/analysistest"
	"idyll/internal/analysis/checks"
)

// TestAnalyzers drives every analyzer over its golden package under
// ../testdata/src, covering positive, negative, and suppression cases via
// the // want expectation comments in the sources themselves. Single-
// directory goldens run one analyzer through the per-package path; the
// mini-module golden (a go.mod of its own under testdata/src/interproc)
// runs the whole-program pipeline — the interprocedural taint engine —
// exactly as `idyllvet ./...` does.
func TestAnalyzers(t *testing.T) {
	tests := []struct {
		analyzer *analysis.Analyzer
		pkg      string
	}{
		{checks.Walltime, "walltime"},
		{checks.Globalrand, "globalrand"},
		{checks.Straygoroutine, "straygoroutine"},
		// The concurrency boundary: same constructs as the straygoroutine
		// golden package, zero expected findings (see the package comment).
		{checks.Straygoroutine, "internal/sim/pdes"},
		{checks.Maporder, "maporder"},
		{checks.Floataccum, "floataccum"},
		{checks.Envelopewrite, "envelopewrite"},
		{checks.Missnoterror, "missnoterror"},
		{checks.Lockorder, "lockorder"},
	}
	seen := make(map[string]bool)
	for _, tt := range tests {
		seen[tt.analyzer.Name] = true
		tt := tt
		t.Run(tt.pkg, func(t *testing.T) {
			analysistest.Run(t, tt.analyzer, "../testdata", tt.pkg)
		})
	}
	// Whole-program golden: interproc pins the taint engine (a core
	// function reaching time.Now two hops away through non-core helpers,
	// next to the direct-import case reporting under the same check).
	t.Run("interproc", func(t *testing.T) {
		analysistest.RunModule(t, checks.All(), "../testdata", "interproc")
	})
	// Every registered analyzer must have a golden package; a new check
	// added to All() without one fails here.
	for _, a := range checks.All() {
		if !seen[a.Name] {
			t.Errorf("analyzer %s has no golden test package", a.Name)
		}
	}
}

// TestRegistry pins the registry's shape: stable names, docs, and the
// scoping contract — every analyzer is either core-only (the determinism
// checks) or bound to an explicit package list (the service-layer contract
// checks); nothing may silently apply everywhere.
func TestRegistry(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range checks.All() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v is missing name or doc", a)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
		if a.CoreOnly == (len(a.Packages) > 0) {
			t.Errorf("analyzer %s must be either CoreOnly or scoped to an explicit package list (got CoreOnly=%v, %d packages)",
				a.Name, a.CoreOnly, len(a.Packages))
		}
		if a.Name != strings.ToLower(a.Name) || strings.ContainsAny(a.Name, " \t") {
			t.Errorf("analyzer name %q must be lower-case with no spaces", a.Name)
		}
	}
	for _, want := range []string{
		"walltime", "globalrand", "straygoroutine", "maporder", "floataccum",
		"envelopewrite", "missnoterror", "lockorder",
	} {
		if !names[want] {
			t.Errorf("registry is missing the %s analyzer", want)
		}
	}
	// The five determinism checks are all enrolled in the taint engine; the
	// contract checks are not (their findings are not reachability facts).
	for _, name := range []string{"walltime", "globalrand", "straygoroutine", "maporder", "floataccum"} {
		a, _ := checks.ByName([]string{name})
		if a[0].Sources == nil {
			t.Errorf("determinism check %s is not enrolled in the taint engine (nil Sources)", name)
		}
	}
}

func TestByName(t *testing.T) {
	got, unknown := checks.ByName([]string{"walltime", "maporder"})
	if unknown != "" || len(got) != 2 {
		t.Fatalf("ByName(walltime,maporder) = %d analyzers, unknown %q", len(got), unknown)
	}
	if got[0].Name != "walltime" || got[1].Name != "maporder" {
		t.Fatalf("ByName returned wrong analyzers: %s, %s", got[0].Name, got[1].Name)
	}
	if _, unknown := checks.ByName([]string{"nosuchcheck"}); unknown != "nosuchcheck" {
		t.Fatalf("ByName should report unknown check, got %q", unknown)
	}
}
