// idyllvet is the repository's determinism linter: a pure-stdlib static
// analysis pass that enforces the simulator core's determinism contract
// (virtual time only, seeded RNG only, no stray concurrency, no
// order-sensitive map iteration — transitively, over the whole static call
// graph) plus the service-layer operational contracts (integrity envelopes
// on every disk write, disk errors degrading to cache misses, mutex
// acquisition order). See DESIGN.md "The determinism contract".
//
// Usage:
//
//	idyllvet [-checks walltime,maporder] [-list] [-json] [-counts]
//	         [-baseline .idyllvet-baseline] [-write-baseline] [packages]
//
// Packages default to ./... and accept the go tool's "./dir/..." pattern
// syntax. Findings print as "file:line:col: [check] message" (or as SARIF
// 2.1.0 with -json) and any unsuppressed, unbaselined finding makes the
// tool exit 1; load or type-check failures exit 2. Suppress a reviewed
// exception with
//
//	//idyllvet:ignore <check>[,<check>...] <justification>
//
// on, or directly above, the offending line (ignore-file for a whole
// file). The baseline file (default .idyllvet-baseline at the module root,
// when present) grandfathers known findings by "path [check] message" —
// line numbers excluded so unrelated edits don't invalidate it; regenerate
// with -write-baseline and review the diff.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"idyll/internal/analysis"
	"idyll/internal/analysis/checks"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		checksFlag   = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		listFlag     = flag.Bool("list", false, "list available checks and exit")
		rootFlag     = flag.String("root", ".", "module root directory")
		jsonFlag     = flag.Bool("json", false, "emit findings as SARIF 2.1.0 JSON on stdout")
		countsFlag   = flag.Bool("counts", false, "print per-check finding counts to stderr")
		baselineFlag = flag.String("baseline", ".idyllvet-baseline", "baseline file (module-root relative; ignored if absent)")
		writeFlag    = flag.Bool("write-baseline", false, "write current findings to the baseline file and exit 0")
	)
	flag.Parse()

	analyzers := checks.All()
	if *listFlag {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *checksFlag != "" {
		var unknown string
		analyzers, unknown = checks.ByName(strings.Split(*checksFlag, ","))
		if unknown != "" {
			fmt.Fprintf(os.Stderr, "idyllvet: unknown check %q (see idyllvet -list)\n", unknown)
			return 2
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(*rootFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "idyllvet: %v\n", err)
		return 2
	}
	pkgs, err := loader.Match(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "idyllvet: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(os.Stderr, "idyllvet: no packages match %v\n", patterns)
		return 2
	}
	diags, err := analysis.RunAll(analyzers, analysis.NewProgram(loader, pkgs))
	if err != nil {
		fmt.Fprintf(os.Stderr, "idyllvet: %v\n", err)
		return 2
	}

	if *writeFlag {
		path := filepath.Join(loader.Root, *baselineFlag)
		if err := writeBaseline(path, loader.Root, diags); err != nil {
			fmt.Fprintf(os.Stderr, "idyllvet: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "idyllvet: wrote %d finding(s) to %s\n", len(diags), path)
		return 0
	}

	baseline, err := readBaseline(filepath.Join(loader.Root, *baselineFlag))
	if err != nil {
		fmt.Fprintf(os.Stderr, "idyllvet: %v\n", err)
		return 2
	}
	var fresh []analysis.Diagnostic
	matched := make(map[string]bool)
	for _, d := range diags {
		key := baselineKey(loader.Root, d)
		if baseline[key] {
			matched[key] = true
			continue
		}
		fresh = append(fresh, d)
	}
	stale := make([]string, 0, len(baseline))
	for key := range baseline {
		if !matched[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		fmt.Fprintf(os.Stderr, "idyllvet: stale baseline entry (fixed? regenerate with -write-baseline): %s\n", key)
	}

	if *jsonFlag {
		if err := json.NewEncoder(os.Stdout).Encode(sarifReport(loader.Root, analyzers, fresh)); err != nil {
			fmt.Fprintf(os.Stderr, "idyllvet: %v\n", err)
			return 2
		}
	} else {
		cwd, _ := os.Getwd()
		for _, d := range fresh {
			file := d.Position.Filename
			if cwd != "" {
				if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = rel
				}
			}
			fmt.Printf("%s:%d:%d: [%s] %s\n", file, d.Position.Line, d.Position.Column, d.Check, d.Message)
		}
	}
	if *countsFlag {
		printCounts(analyzers, fresh)
	}
	if len(fresh) > 0 {
		fmt.Fprintf(os.Stderr, "idyllvet: %d finding(s)\n", len(fresh))
		return 1
	}
	return 0
}

// baselineKey renders a diagnostic in the line-number-free form baselines
// store: "module-relative/path [check] message". Dropping positions keeps
// the baseline stable across unrelated edits to the same file.
func baselineKey(root string, d analysis.Diagnostic) string {
	file := d.Position.Filename
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s [%s] %s", file, d.Check, d.Message)
}

// readBaseline parses a baseline file into its key set. A missing file is
// an empty baseline, not an error; blank lines and '#' comments are
// skipped.
func readBaseline(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	out := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out[line] = true
	}
	return out, nil
}

// writeBaseline writes the current findings as a sorted baseline file with
// a self-describing header.
func writeBaseline(path, root string, diags []analysis.Diagnostic) error {
	keys := make([]string, 0, len(diags))
	seen := make(map[string]bool)
	for _, d := range diags {
		key := baselineKey(root, d)
		if !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# idyllvet baseline: grandfathered findings, one \"path [check] message\" per line.\n")
	b.WriteString("# Regenerate with `go run ./cmd/idyllvet -write-baseline ./...` and review the diff;\n")
	b.WriteString("# every entry that stays must carry a justification in review, not here.\n")
	for _, key := range keys {
		b.WriteString(key)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// printCounts emits one "check: N" line per registered analyzer (zeros
// included, so a check silently matching nothing is visible) plus a total.
func printCounts(analyzers []*analysis.Analyzer, diags []analysis.Diagnostic) {
	counts := make(map[string]int)
	for _, d := range diags {
		counts[d.Check]++
	}
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	// Directive misuse reports under the reserved "idyllvet" pseudo-check.
	if counts["idyllvet"] > 0 {
		names = append(names, "idyllvet")
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "idyllvet: %-15s %d\n", name, counts[name])
	}
	fmt.Fprintf(os.Stderr, "idyllvet: total %d finding(s)\n", len(diags))
}

// --- SARIF 2.1.0 (the minimal subset GitHub code scanning accepts) ---

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID   string    `json:"id"`
	Desc sarifText `json:"shortDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	Physical sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	Artifact sarifArtifact `json:"artifactLocation"`
	Region   sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

func sarifReport(root string, analyzers []*analysis.Analyzer, diags []analysis.Diagnostic) sarifLog {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, Desc: sarifText{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		uri := d.Position.Filename
		if rel, err := filepath.Rel(root, uri); err == nil && !strings.HasPrefix(rel, "..") {
			uri = filepath.ToSlash(rel)
		}
		results = append(results, sarifResult{
			RuleID:  d.Check,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{Physical: sarifPhysical{
				Artifact: sarifArtifact{URI: uri},
				Region:   sarifRegion{StartLine: d.Position.Line, StartColumn: d.Position.Column},
			}}},
		})
	}
	return sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "idyllvet", Rules: rules}}, Results: results}},
	}
}
