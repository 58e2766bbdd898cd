package idyll_test

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// suiteTable is one figure block of results/full_suite.txt: row label →
// column name → value.
type suiteTable map[string]map[string]float64

// readSuiteFigure parses the "== id ==" block of the committed suite
// output. A block is a title, a caption, a header of column names and one
// line per row, whose label is everything before the last len(columns)
// fields; it ends at the first blank line.
func readSuiteFigure(t *testing.T, id string) suiteTable {
	t.Helper()
	raw, err := os.ReadFile("results/full_suite.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(raw), "== "+id+" ==\n")
	if !ok {
		t.Fatalf("results/full_suite.txt has no %s block", id)
	}
	block, _, _ = strings.Cut(block, "\n\n")
	lines := strings.Split(block, "\n")
	if len(lines) < 4 {
		t.Fatalf("%s block has %d lines, want a title, caption, header and rows", id, len(lines))
	}
	columns := strings.Fields(lines[2])
	table := suiteTable{}
	for _, line := range lines[3:] {
		f := strings.Fields(line)
		if len(f) <= len(columns) {
			t.Fatalf("%s row %q has no label", id, line)
		}
		label := strings.Join(f[:len(f)-len(columns)], " ")
		table[label] = map[string]float64{}
		for i, c := range columns {
			v, err := strconv.ParseFloat(f[len(f)-len(columns)+i], 64)
			if err != nil {
				t.Fatalf("%s row %q column %s: %v", id, label, c, err)
			}
			table[label][c] = v
		}
	}
	return table
}

// docRowMeasured returns the last cell of the markdown table row in file
// whose first cell is label: the "measured" column of the headline tables.
func docRowMeasured(t *testing.T, file, label string) string {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, line := range strings.Split(string(raw), "\n") {
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		if len(cells) >= 3 && strings.TrimSpace(cells[0]) == label {
			found = append(found, strings.TrimSpace(cells[len(cells)-1]))
		}
	}
	if len(found) != 1 {
		t.Fatalf("%s: %d table rows labelled %q, want 1", file, len(found), label)
	}
	return found[0]
}

// gain renders a normalized performance as the docs write a speedup.
func gain(v float64) string { return fmt.Sprintf("%+.1f%%", (v-1)*100) }

// TestHeadlineDocsMatchSuite fails when a headline number in README.md or
// EXPERIMENTS.md drifts from the committed results/full_suite.txt. Fig 11
// rows quote the "Ave." column as a gain over baseline.
func TestHeadlineDocsMatchSuite(t *testing.T) {
	fig1 := readSuiteFigure(t, "fig1")
	fig6 := readSuiteFigure(t, "fig6")
	fig11 := readSuiteFigure(t, "fig11")
	fig24 := readSuiteFigure(t, "fig24")
	ave11 := func(row string) string {
		v, ok := fig11[row]["Ave."]
		if !ok {
			t.Fatalf("fig11 has no %q row", row)
		}
		return gain(v)
	}
	checks := []struct {
		file, label, want string
	}{
		{"README.md", "IDYLL average speedup over baseline (Fig 11)", ave11("IDYLL")},
		{"README.md", "IDYLL-InMem average (Fig 11)", ave11("IDYLL-InMem")},
		{"README.md", "Zero-latency-invalidation ideal (Fig 11)", ave11("Zero-Latency Invalidation")},
		{"README.md", "Invalidation overhead, 2 GPUs (Fig 1)",
			fmt.Sprintf("~%.0f%% of exec", fig1["Invalidation overhead"]["Ave."]*100)},
		{"README.md", "Demand-miss latency cut by removing invals (Fig 6)",
			fmt.Sprintf("%.1f%%", (1-fig6["Eliminating invalidation (rel.)"]["Ave."])*100)},
		{"README.md", "DNN workloads (Fig 24)",
			gain(fig24["IDYLL"]["VGG16"]) + " / " + gain(fig24["IDYLL"]["ResNet18"])},
		{"EXPERIMENTS.md", "IDYLL average speedup (Fig 11)", ave11("IDYLL")},
		{"EXPERIMENTS.md", "Only Lazy", ave11("Only Lazy")},
		{"EXPERIMENTS.md", "Only In-PTE Directory", ave11("Only In-PTE Directory")},
		{"EXPERIMENTS.md", "IDYLL-InMem", ave11("IDYLL-InMem")},
		{"EXPERIMENTS.md", "Zero-latency invalidation", ave11("Zero-Latency Invalidation")},
	}
	for _, c := range checks {
		if got := docRowMeasured(t, c.file, c.label); got != c.want {
			t.Errorf("%s %q says %s; results/full_suite.txt gives %s", c.file, c.label, got, c.want)
		}
	}
}

// experimentsSection returns the EXPERIMENTS.md section whose "### " heading
// starts with heading, up to the next heading, with every run of white
// space folded to one space so a quote may wrap across lines.
func experimentsSection(t *testing.T, heading string) string {
	t.Helper()
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n### "+heading)
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no section %q", heading)
	}
	section, _, _ = strings.Cut(section, "\n#")
	return strings.Join(strings.Fields(section), " ")
}

// TestFigureProseMatchesSuite fails when a number or an ordering quoted in
// EXPERIMENTS.md's per-figure prose drifts from results/full_suite.txt.
func TestFigureProseMatchesSuite(t *testing.T) {
	fig2 := readSuiteFigure(t, "fig2")
	fig12 := readSuiteFigure(t, "fig12")
	drain := readSuiteFigure(t, "ablation-drain")

	// Figure 12's deepest cuts: the three apps with the lowest relative
	// latency, lowest first.
	rel := fig12["Relative"]
	var apps []string
	for app := range rel {
		if app != "Ave." {
			apps = append(apps, app)
		}
	}
	sort.Slice(apps, func(i, j int) bool { return rel[apps[i]] < rel[apps[j]] })
	deepest := fmt.Sprintf("deepest cuts on %s (%.2f–%.2f)",
		strings.Join(apps[:3], "/"), rel[apps[0]], rel[apps[2]])

	// The drain ablation's winner, on average and app by app.
	idle, evict := drain["Drain on idle (default)"], drain["Eviction-only"]
	winner, loser, win, lose := "eviction-only", "drain-on-idle", evict, idle
	if idle["Ave."] > evict["Ave."] {
		winner, loser, win, lose = loser, winner, idle, evict
	}
	ahead := 0
	for _, app := range apps {
		if win[app] > lose[app] {
			ahead++
		}
	}

	checks := []struct {
		section string
		want    []string
	}{
		{"Figure 2 —", []string{
			"zero-latency " + gain(fig2["Zero-Latency Invalidation"]["Ave."]),
			fmt.Sprintf("first-touch outperforms counter-based (%.1f×)", fig2["First-touch"]["Ave."]),
			"on-touch " + gain(fig2["On-touch"]["Ave."]),
		}},
		{"Figure 12 —", []string{
			fmt.Sprintf("%.0f%% average reduction** (%.3f relative)", (1-rel["Ave."])*100, rel["Ave."]),
			deepest,
		}},
		{"Ablation — IRMB drain-on-idle", []string{
			fmt.Sprintf("Eviction-only write-back %.3f× vs drain-on-idle %.3f×",
				evict["Ave."], idle["Ave."]),
			fmt.Sprintf("%s is ahead on average and on %d of %d apps", winner, ahead, len(apps)),
		}},
	}
	for _, c := range checks {
		text := experimentsSection(t, c.section)
		for _, want := range c.want {
			if !strings.Contains(text, want) {
				t.Errorf("EXPERIMENTS.md %q does not say %q, which results/full_suite.txt gives:\n%s",
					c.section, want, text)
			}
		}
	}
}
