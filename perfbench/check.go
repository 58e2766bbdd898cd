package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// suiteSeed is the seed results/full_suite.txt was generated with.
const suiteSeed = 20231028

// suiteBlock returns the table of experiment id from a rendered suite
// (results/full_suite.txt): the lines after "== id ==" up to the next
// experiment header.
func suiteBlock(suite, id string) (string, error) {
	header := "== " + id + " ==\n"
	i := strings.Index(suite, header)
	if i < 0 {
		return "", fmt.Errorf("no %q block in the suite output", id)
	}
	block := suite[i+len(header):]
	if j := strings.Index(block, "\n== "); j >= 0 {
		block = block[:j]
	}
	return strings.TrimRight(block, "\n") + "\n", nil
}

// compareText reports where got first differs from want, or nil.
func compareText(got, want string) error {
	if got == want {
		return nil
	}
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	at := n
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			at = i
			break
		}
	}
	line := strings.Count(want[:at], "\n") + 1
	return fmt.Errorf("output differs from the reference at byte %d (line %d; lengths %d vs %d)",
		at, line, len(got), len(want))
}

// buildDigest identifies the running binary, and so the repository source
// it was built from: a SHA-256 prefix of the executable.
func buildDigest() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(self)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// crossCheck lets the timed and the traced run of one workload and seed
// check each other, whichever runs second: it stores this run's outputs
// (name → fingerprint) and compares them with the other mode's record, if
// one exists. Records are kept per build, so a run never compares with
// outputs of other source. It returns the names whose fingerprints differ.
func (r *run) crossCheck(outputs map[string]string) ([]string, error) {
	mode, other := "timed", "traced"
	if r.traced {
		mode, other = other, mode
	}
	build, err := buildDigest()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(r.outDir, "records", build)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := func(m string) string {
		return filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", r.workload, r.seed, m))
	}
	raw, err := json.Marshal(outputs)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path(mode), raw, 0o644); err != nil {
		return nil, err
	}
	theirs := map[string]string{}
	raw, err = os.ReadFile(path(other))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &theirs); err != nil {
		return nil, fmt.Errorf("%s: %w", path(other), err)
	}
	var diff []string
	compared := 0
	for k, v := range outputs {
		if w, ok := theirs[k]; ok {
			compared++
			if v != w {
				diff = append(diff, k)
			}
		}
	}
	sort.Strings(diff)
	r.logf("cross-checked %d outputs against the %s run of seed %d", compared, other, r.seed)
	return diff, nil
}
