package lint

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// This file implements mosaiclint's -diff mode: lint only the packages
// touched since a git ref. The file list comes from git itself (tracked
// changes against the ref plus untracked files), so the mode needs no
// VCS state beyond the repository the module already lives in.

// ChangedFiles returns the repo-relative paths changed since ref: files
// differing between ref and the working tree, plus untracked (non-ignored)
// files. Paths use forward slashes, as git prints them.
func ChangedFiles(root, ref string) ([]string, error) {
	seen := map[string]bool{}
	run := func(args ...string) error {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		if err != nil {
			detail := ""
			if ee, ok := err.(*exec.ExitError); ok {
				detail = ": " + strings.TrimSpace(string(ee.Stderr))
			}
			return fmt.Errorf("lint: git %s%s", strings.Join(args, " "), detail)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if line = strings.TrimSpace(line); line != "" {
				seen[line] = true
			}
		}
		return nil
	}
	if err := run("diff", "--name-only", ref); err != nil {
		return nil, err
	}
	if err := run("ls-files", "--others", "--exclude-standard"); err != nil {
		return nil, err
	}
	files := make([]string, 0, len(seen))
	for f := range seen {
		files = append(files, f)
	}
	sort.Strings(files)
	return files, nil
}

// PackagePatterns maps changed files to the ./dir package patterns the
// loader should lint: the directory of every changed .go file, skipping
// testdata trees (fixtures are not packages of the module) and directories
// that no longer exist (deletions). The module root maps to ".".
func PackagePatterns(root string, files []string) []string {
	seen := map[string]bool{}
	for _, f := range files {
		if !strings.HasSuffix(f, ".go") {
			continue
		}
		dir := filepath.ToSlash(filepath.Dir(f))
		if dir == "testdata" || strings.Contains(dir, "/testdata") ||
			strings.HasPrefix(dir, "testdata/") {
			continue
		}
		if st, err := os.Stat(filepath.Join(root, dir)); err != nil || !st.IsDir() {
			continue
		}
		if dir == "." {
			seen["."] = true
		} else {
			seen["./"+dir] = true
		}
	}
	patterns := make([]string, 0, len(seen))
	for p := range seen {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	return patterns
}
