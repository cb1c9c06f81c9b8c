package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// gitIn runs a git command in dir, failing the test on error. The scratch
// repositories these tests build are hermetic: identity and config come
// from the command line, never from the environment.
func gitIn(t *testing.T, dir string, args ...string) {
	t.Helper()
	base := []string{"-c", "user.name=test", "-c", "user.email=test@example.com"}
	cmd := exec.Command("git", append(base, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GIT_CONFIG_GLOBAL=/dev/null", "GIT_CONFIG_SYSTEM=/dev/null")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("git %v: %v\n%s", args, err, out)
	}
}

func writeFileIn(t *testing.T, root, rel, content string) {
	t.Helper()
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChangedFiles builds a scratch repository and checks that tracked
// modifications, new commits, and untracked files all surface against the
// initial ref, while ignored files do not.
func TestChangedFiles(t *testing.T) {
	root := t.TempDir()
	gitIn(t, root, "init", "-q", "-b", "main")
	writeFileIn(t, root, "a/a.go", "package a\n")
	writeFileIn(t, root, "b/b.go", "package b\n")
	writeFileIn(t, root, ".gitignore", "*.log\n")
	gitIn(t, root, "add", ".")
	gitIn(t, root, "commit", "-q", "-m", "seed")

	if files, err := ChangedFiles(root, "HEAD"); err != nil {
		t.Fatal(err)
	} else if len(files) != 0 {
		t.Fatalf("clean tree: ChangedFiles = %v, want none", files)
	}

	// A committed change, a working-tree change, an untracked file, and an
	// ignored file.
	writeFileIn(t, root, "a/a.go", "package a // v2\n")
	gitIn(t, root, "commit", "-qam", "touch a")
	writeFileIn(t, root, "b/b.go", "package b // dirty\n")
	writeFileIn(t, root, "c/new.go", "package c\n")
	writeFileIn(t, root, "debug.log", "noise\n")

	files, err := ChangedFiles(root, "HEAD~1")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a/a.go", "b/b.go", "c/new.go"}
	if !reflect.DeepEqual(files, want) {
		t.Fatalf("ChangedFiles = %v, want %v", files, want)
	}

	if _, err := ChangedFiles(root, "no-such-ref"); err == nil {
		t.Fatal("ChangedFiles with a bad ref did not error")
	}
}

// TestPackagePatterns checks the file→pattern mapping: .go files map to
// their ./dir, the module root maps to ".", and testdata trees, non-Go
// files, and deleted directories are skipped.
func TestPackagePatterns(t *testing.T) {
	root := t.TempDir()
	for _, d := range []string{"internal/tlb", "internal/lint/testdata/src/fix", "cmd/x"} {
		if err := os.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	files := []string{
		"main.go",                             // module root → "."
		"internal/tlb/set.go",                 // normal package
		"internal/tlb/set_test.go",            // same dir, deduplicated
		"internal/lint/testdata/src/fix/f.go", // fixture tree, skipped
		"cmd/x/main.go",                       // second package
		"README.md",                           // not Go
		"internal/gone/old.go",                // directory deleted
	}
	got := PackagePatterns(root, files)
	want := []string{".", "./cmd/x", "./internal/tlb"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PackagePatterns = %v, want %v", got, want)
	}
}
